package system

// Per-access hot path: the compute phase, TLB probe, page-table walk,
// on-chip probe and DRAM-cache probe of every simulated memory reference.
//
// Between true wait points every latency on this path is a deterministic
// sum, so a job's private stages run as one loop rather than one event
// per stage. runStepAt runs the compute phase, the TLB probe or flat
// walk, the on-chip probe and the step's retirement at their logical
// instants, step after step, and returns to the engine only at the first
// stage that touches state another core can see:
//
//   - an on-chip hit's DRAM-cache recency refresh (one event at the probe
//     instant; DRAM-only mode never refreshes, so its on-chip hits cost
//     no event);
//   - the DRAM-cache probe, an event at the instant the on-chip probe
//     returns, whose reply is scheduled allocation-free through AtFunc;
//   - a noDP page-table walk, which reads table pages through the DRAM
//     cache;
//   - the job's completion, which frees the core and offers new work.
//
// Three rules say what running ahead may change:
//
//  1. Private state may move. A core's TLB and on-chip hierarchy are
//     touched only by that core's one running job (shootdowns are priced,
//     never applied; the LLC is per core and fills only at a DRAM-cache
//     reply, an event), and their counters are not registered in the
//     metrics registry, so probing them when the job runs ahead instead
//     of at the logical probe time is unobservable. Nothing shared moves:
//     the recency refresh, the DRAM-cache probe and the completion all
//     happen at their exact per-stage instants.
//
//  2. Ties between cores are not modelled; one-core runs are pinned to
//     the parent. Same-instant events fire in push order (the engine
//     orders by time, then push sequence), and a job that runs ahead
//     pushes its next event earlier than the one-event-per-stage chain
//     did, so it can trade places with another core's event at the same
//     instant. Which of two cores touches shared state first at one
//     nanosecond is an artefact of the engine, not of the machine, and
//     the 4-core fixture (testdata/outputs.txt) records the current
//     order. On one core no two cores' events can tie, and
//     TestOneCoreMatchesParent holds every fixture case at one core to
//     the outputs the per-stage chain produced
//     (testdata/outputs.onecore.txt).
//
//  3. Observation follows logical time. The System's own statistics,
//     attribution charges and request spans are gated by measuredAt
//     (observe.go): an event's own work on its firing instant, a stage
//     run ahead on the instant its event would have fired, so the
//     measurement window cuts exactly where the per-stage chain's did.
//     The DRAM cache's fetch spans follow the tracer runWindow arms after
//     the warmup, and registry counters are windowed by the snapshot
//     delta in collect.
//
// Downstream of the DRAM-cache probe, the miss machinery continues in
// core.go.

import (
	"astriflash/internal/obs"
	"astriflash/internal/sim"
)

// Package-level event callbacks for the per-access path; like core.go's,
// (top-level func, pointer arg) pairs schedule allocation-free.
func jobTouchEvent(a any)      { j := a.(*jobState); j.core.touchDone(j) }
func jobDRAMAccessEvent(a any) { j := a.(*jobState); j.core.dramAccess(j) }
func jobDCHitEvent(a any)      { j := a.(*jobState); j.core.flatDCHit(j) }
func jobDCMissEvent(a any)     { j := a.(*jobState); j.core.flatDCMiss(j) }
func jobWalkEvent(a any)       { j := a.(*jobState); j.core.flatWalkStart(j) }
func jobCompleteEvent(a any)   { j := a.(*jobState); j.core.complete(j) }

// runStepAt runs the job from the top of step pc at logical instant t, no
// earlier than now: step after step, until a stage touches shared state
// (the stage's event is then pushed at its instant) or the job completes.
// The completion is always an event, also when it falls on the current
// instant (after a DRAM-cache reply), so every completion costs exactly
// one event (TestDRAMOnlyEventCensus). It is a loop, not a chain of calls,
// so a long run of on-chip hits keeps the stack flat.
func (c *coreState) runStepAt(job *jobState, t sim.Time) {
	for job.pc < len(job.steps) {
		step := job.steps[job.pc]
		c.s.attrAt(attrCompute, step.ComputeNs, t)
		c.spanAt(t, job, obs.StageCompute, 0, t, t+step.ComputeNs)
		t2, ok := c.translate(job, t+step.ComputeNs, false)
		if !ok {
			return
		}
		if t, ok = c.chipProbe(job, t2); !ok {
			return
		}
	}
	c.s.eng.AtFunc(t, jobCompleteEvent, job)
}

// translate performs the TLB probe of the step's reference at t1 and
// returns when translation ends. false means an event-simulated noDP walk
// took over the step. resume marks the re-issued access of a thread
// regaining the core: the chain ran that probe inline at the current
// instant, so a noDP walk also starts inline.
func (c *coreState) translate(job *jobState, t1 sim.Time, resume bool) (sim.Time, bool) {
	vpn := job.steps[job.pc].Access.Page()
	if lat, hit := c.tlb.Lookup(vpn); hit {
		c.spanAt(t1, job, obs.StageTLB, uint64(vpn), t1, t1+lat)
		return t1 + lat, true
	}
	if c.wkr == nil {
		// Flat-partition walk: a deterministic sum (levels x flat-DRAM
		// access).
		t2 := t1 + flatWalkNs
		c.s.attrAt(attrWalk, flatWalkNs, t2)
		c.spanAt(t2, job, obs.StageTLB, uint64(vpn), t1, t2)
		c.tlb.Insert(vpn)
		return t2, true
	}
	// noDP: the walk reads page-table pages through the DRAM cache
	// (shared state), so it is event-simulated from t1.
	if resume {
		c.flatWalkStart(job)
	} else {
		c.s.eng.AtFunc(t1, jobWalkEvent, job)
	}
	return 0, false
}

// chipProbe probes the on-chip hierarchy at t. On a hit in DRAM-only mode
// the step retires and chipProbe returns the instant the next one starts;
// otherwise it pushes the step's next shared-state event and returns
// false: the DRAM-cache probe, or the hit's recency refresh.
func (c *coreState) chipProbe(job *jobState, t sim.Time) (sim.Time, bool) {
	step := job.steps[job.pc]
	r := c.hier.Access(step.Access)
	c.s.attrAt(attrOnChip, r.Latency, t)
	c.spanAt(t, job, obs.StageOnChip, 0, t, t+r.Latency)
	if r.ToDRAM {
		c.s.eng.AtFunc(t+r.Latency, jobDRAMAccessEvent, job)
		return 0, false
	}
	if c.s.cfg.Mode != DRAMOnly {
		// The reference is served on chip; the page's recency refresh
		// (touchDone) lets the DRAM cache's replacement policy see the
		// reuse. DRAM-only mode never installs a page, so there is
		// nothing to refresh.
		job.hitDone = t + r.Latency
		c.s.eng.AtFunc(t, jobTouchEvent, job)
		return 0, false
	}
	job.retire()
	return t + r.Latency, true
}

// touchDone refreshes the DRAM-cache recency of an on-chip hit's page at
// the probe instant, retires the step and runs the job on.
func (c *coreState) touchDone(job *jobState) {
	c.s.dc.Touch(job.steps[job.pc].Access.Page())
	job.retire()
	c.runStepAt(job, job.hitDone)
}

// retire advances the job past a completed access.
func (job *jobState) retire() {
	job.forced = false // a forced access has retired
	job.pc++
}

// flatWalkStart begins an event-simulated page-table walk at the current
// instant (the noDP configuration, where table pages can hit flash). The
// walk's completion continues into the on-chip probe.
func (c *coreState) flatWalkStart(j *jobState) {
	vpn := j.steps[j.pc].Access.Page()
	walkStart := c.s.eng.Now()
	c.wkr.Walk(c.s.eng, vpn, func(at sim.Time) {
		c.s.attrAt(attrWalk, at-walkStart, at)
		c.spanAt(at, j, obs.StageTLB, uint64(vpn), walkStart, at)
		c.tlb.Insert(vpn)
		if t, ok := c.chipProbe(j, at); ok {
			c.runStepAt(j, t)
		}
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

// flatDCHit is the DRAM-cache reply for a hit: the step retires and the
// job runs on from the reply instant.
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
	j.retire()
	c.runStepAt(j, at)
}

// flatDCMiss is the DRAM-cache reply for a miss: hand off to the miss
// machinery in core.go, which is a true wait point and stays
// event-driven.
func (c *coreState) flatDCMiss(j *jobState) {
	at := c.s.eng.Now()
	c.spanAt(at, j, obs.StageMissSignal, uint64(j.steps[j.pc].Access.Page()), j.dcIssued, at)
	c.onDRAMMiss(j)
}
