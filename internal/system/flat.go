package system

// Per-access hot path: the compute phase, TLB probe, page-table walk and
// DRAM-cache probe of every simulated memory reference.
//
// Between true wait points every latency on this path is a deterministic
// sum, so it runs as straight-line code rather than one event per stage.
// The event that starts a step folds the compute phase, the TLB probe and
// the flat-partition walk, and schedules the next event directly at the
// instant the step first touches shared state: the on-chip probe event,
// whose handler refreshes DRAM-cache recency or issues the DRAM-cache
// probe. DRAM-cache replies are scheduled allocation-free through AtFunc.
//
// Its outputs are bit-identical to the one-event-per-stage chain it was
// folded from, whose outputs testdata/outputs.txt records (checked by
// the TestFlatMatchesLegacy tests). Three rules say what folding may
// change:
//
//  1. Private state may move. A core's TLB is touched only by that
//     core's one running job (shootdowns are priced, never applied), and
//     its counters are not registered in the metrics registry, so probing
//     it at the instant the step starts instead of at the logical probe
//     time is unobservable. Nothing else moves: the on-chip probe, the
//     DRAM-cache recency refresh, and the probe itself all stay at their
//     exact per-stage instants.
//
//  2. Same-instant events fire in push order (the engine orders by time,
//     then push sequence). The folded step pushes jobChipAccessEvent at
//     the instant the step starts, earlier than the chain did, so it can
//     trade places with another core's event at the same instant, mostly
//     jobStepDoneEvent. This is a measured fact, not a proof. Against the
//     chain's order, over the fixture's 14 configurations, 0.06-2.0% of
//     firing positions change; with jobChipAccessEvent left out the two
//     firing sequences are equal, every instant fires the same multiset
//     of events, and every output is unchanged. chipAccess can reach
//     shared state whose order matters: dramcache.Cache.Touch bumps the
//     cache's recency stamp counter, and a dirty LLC victim goes through
//     the hierarchy's WritebackSink to the DRAM cache or to flash. The
//     TestFlatMatchesLegacy tests catch a swap that moves an output only
//     in the configurations they run.
//
//  3. Observation follows logical time. The System's own statistics,
//     attribution charges and request spans are gated by measuredAt
//     (observe.go): an event's own work on its firing instant, an
//     inline-executed stage on the instant its event would have fired,
//     so the measurement window cuts exactly where the per-stage chain's
//     did. The DRAM cache's fetch spans follow the tracer runWindow arms
//     after the warmup, and registry counters are windowed by the
//     snapshot delta in collect.
//
// Downstream of the on-chip probe — chipAccess, stepDone and the whole
// miss machinery — the path continues in core.go.

import (
	"astriflash/internal/obs"
	"astriflash/internal/sim"
)

// Package-level event callbacks for the per-access path; like core.go's,
// (top-level func, pointer arg) pairs schedule allocation-free.
func jobDCHitEvent(a any)  { j := a.(*jobState); j.core.flatDCHit(j) }
func jobDCMissEvent(a any) { j := a.(*jobState); j.core.flatDCMiss(j) }
func jobWalkEvent(a any)   { j := a.(*jobState); j.core.flatWalkStart(j) }

// runStep runs the job from the top of step pc at the current instant
// (steps begin at real events: a step-done, a DRAM-cache reply, a
// dispatch): it completes the job, or charges the step's compute phase
// and folds it into the step's memory reference.
func (c *coreState) runStep(job *jobState) {
	if job.pc >= len(job.steps) {
		c.complete(job)
		return
	}
	t0 := c.s.eng.Now()
	step := job.steps[job.pc]
	c.s.attrAt(attrCompute, step.ComputeNs, t0)
	c.spanAt(t0, job, obs.StageCompute, 0, t0, t0+step.ComputeNs)
	c.flatAccess(job, t0+step.ComputeNs, false)
}

// flatAccess performs the step's memory reference. t1 is when the
// per-stage chain's access event fired (the TLB probe instant). resume
// marks the re-issued access of a thread regaining the core: the chain
// ran that probe inline at the current instant, so a noDP walk must also
// start inline.
func (c *coreState) flatAccess(job *jobState, t1 sim.Time, resume bool) {
	step := job.steps[job.pc]
	vpn := step.Access.Page()
	if lat, hit := c.tlb.Lookup(vpn); hit {
		c.spanAt(t1, job, obs.StageTLB, uint64(vpn), t1, t1+lat)
		c.s.eng.AtFunc(t1+lat, jobChipAccessEvent, job)
		return
	}
	if c.wkr == nil {
		// Flat-partition walk: a deterministic sum (levels x flat-DRAM
		// access) folded into straight-line code.
		t2 := t1 + flatWalkNs
		c.s.attrAt(attrWalk, flatWalkNs, t2)
		c.spanAt(t2, job, obs.StageTLB, uint64(vpn), t1, t2)
		c.tlb.Insert(vpn)
		c.s.eng.AtFunc(t2, jobChipAccessEvent, job)
		return
	}
	// noDP: the walk reads page-table pages through the DRAM cache
	// (shared state), so it is event-simulated from t1, where the
	// per-stage chain's access event started it.
	if resume {
		c.flatWalkStart(job)
		return
	}
	c.s.eng.AtFunc(t1, jobWalkEvent, job)
}

// flatWalkStart begins an event-simulated page-table walk at the current
// instant (the noDP configuration, where table pages can hit flash). The
// walk's completion continues into chipAccess.
func (c *coreState) flatWalkStart(j *jobState) {
	vpn := j.steps[j.pc].Access.Page()
	walkStart := c.s.eng.Now()
	c.wkr.Walk(c.s.eng, vpn, func(at sim.Time) {
		c.s.attrAt(attrWalk, at-walkStart, at)
		c.spanAt(at, j, obs.StageTLB, uint64(vpn), walkStart, at)
		c.tlb.Insert(vpn)
		c.chipAccess(j)
	})
}

// dramAccess probes the DRAM cache (or flat DRAM for DRAM-only) at the
// current instant. The probe is its own event because the cache is
// shared; the reply is scheduled allocation-free at the instant the
// cache returns.
func (c *coreState) dramAccess(job *jobState) {
	step := job.steps[job.pc]
	job.dcIssued = c.s.eng.Now()
	if c.s.cfg.Mode == DRAMOnly {
		r := c.s.dc.AccessAlwaysHitSync(step.Access)
		c.s.eng.AtFunc(r.At, jobDCHitEvent, job)
		return
	}
	r := c.s.dc.AccessSync(step.Access)
	if r.Hit {
		c.s.eng.AtFunc(r.At, jobDCHitEvent, job)
		return
	}
	c.s.eng.AtFunc(r.At, jobDCMissEvent, job)
}

// flatDCHit is the DRAM-cache reply for a hit; the step retires through
// stepDone.
func (c *coreState) flatDCHit(j *jobState) {
	at := c.s.eng.Now()
	step := j.steps[j.pc]
	c.s.attrAt(attrDRAM, at-j.dcIssued, at)
	c.spanAt(at, j, obs.StageDRAM, uint64(step.Access.Page()), j.dcIssued, at)
	j.faultRetries = 0
	if j.hasPin {
		c.s.dc.Unpin(j.pinnedPage)
		j.hasPin = false
	}
	c.hier.Fill(step.Access)
	c.stepDone(j)
}

// flatDCMiss is the DRAM-cache reply for a miss: hand off to the miss
// machinery in core.go, which is a true wait point and stays
// event-driven.
func (c *coreState) flatDCMiss(j *jobState) {
	at := c.s.eng.Now()
	c.spanAt(at, j, obs.StageMissSignal, uint64(j.steps[j.pc].Access.Page()), j.dcIssued, at)
	c.onDRAMMiss(j)
}
