package system

import (
	"math"

	"astriflash/internal/loadgen"
	"astriflash/internal/overload"
	"astriflash/internal/sim"
	"astriflash/internal/workload"
)

// Result summarizes one run's measurement window. The root package
// re-exports it as astriflash.Metrics.
//
// Result must not have a String method: the output fixture and the
// benchmark digest print it with %+v, which would then print only the
// method's summary instead of every field.
type Result struct {
	Mode     string
	Workload string

	// SimulatedNs is the measured window of simulated time.
	SimulatedNs int64
	// Jobs is the number of requests completed in the window.
	Jobs uint64
	// ThroughputJPS is completed requests per simulated second.
	ThroughputJPS float64

	// Latency percentiles in nanoseconds. Service covers first-schedule
	// to completion (includes flash waits, excludes queue time); Response
	// covers arrival to completion.
	MeanServiceNs, P50ServiceNs, P99ServiceNs int64
	P50ResponseNs, P99ResponseNs              int64
	P50QueueNs, P99QueueNs                    int64

	// DRAMCacheMissRatio is misses over DRAM-cache accesses in the
	// window.
	DRAMCacheMissRatio float64
	// MeanMissIntervalNs is the average per-core spacing between DRAM-
	// cache misses (the paper's 5-25 us calibration target).
	MeanMissIntervalNs int64

	FlashReads, FlashWrites uint64
	GCRuns                  uint64
	GCBlockedFraction       float64
	ForcedSyncCount         uint64
	// P99FlashReadNs is the device-level read tail (queueing + retry
	// ladder + channel transfer), cumulative over the run.
	P99FlashReadNs int64

	// Fault-injection observables; all zero when RBER and PEFailProb are 0.
	FlashRetriedReads   uint64 // reads that needed >=1 read-retry step
	FlashUncorrectables uint64 // reads that defeated the whole ladder
	FlashRecovered      uint64 // reads served from the FTL's recovered copy
	FlashRemapMoves     uint64 // pages migrated off failed cells/blocks
	FlashBadBlocks      uint64 // blocks retired as bad (cumulative)
	BCRetries           uint64 // backside-controller read re-issues
	BCTimeouts          uint64 // backside-controller watchdog firings
	BCFallbacks         uint64 // exhausted-retry recovered-copy completions
	WriteAmplification  float64

	// Admission-filter observables; all zero under admit-all.
	AdmissionBypassed uint64 // fetches diverted to the bypass ring
	BypassHits        uint64 // accesses served from the bypass ring
	BypassWritebacks  uint64 // dirty ring evictions written to flash
	// FlashPrograms is total page programs in the window (host writes +
	// GC moves + remap copies) — the wear quantity the economics model
	// prices.
	FlashPrograms uint64

	// Open-loop admission and deadline observables (RunSource runs, the
	// root package's RunOverload; all zero for closed-loop and plain
	// Poisson runs).
	Offered        uint64 // arrivals the source generated in the window
	Admitted       uint64 // arrivals past the front door
	AdmissionSheds uint64 // rejected by the admission controller
	QueueFullDrops uint64 // rejected by the bounded admission queue
	ExpiredDrops   uint64 // shed at dispatch: deadline passed while queued
	DeadlineMisses uint64 // served, but past their deadline
	GoodJobs       uint64 // served within their deadline
	ExpiredInFlash uint64 // deadline expired during a flash wait
	// GoodputJPS is within-deadline completions per simulated second
	// (zero when the run had no deadlines).
	GoodputJPS float64

	// Counters is the metrics registry's full window view: every
	// registered counter's delta over the measurement window, keyed by
	// dotted name (system.*, dramcache.*, flash.*, uthread.coreN.*). The
	// named fields above are stable views into the same registry.
	Counters map[string]uint64
}

// spawnJob materializes a fresh workload request for core c at time now,
// reusing a pooled job record (and its step slice) when one is free.
func (s *System) spawnJob(c *coreState, arrived sim.Time) *jobState {
	s.reqSeq++
	job := s.newJob()
	job.core = c
	job.req = loadgen.Request{ID: s.reqSeq, ArrivedAt: arrived}
	job.steps = s.nextJobSteps(job.steps)
	c.enqueue(job)
	return job
}

// newJob pops a recycled job record, or allocates the pool's first ones.
func (s *System) newJob() *jobState {
	if n := len(s.jobPool); n > 0 {
		job := s.jobPool[n-1]
		s.jobPool[n-1] = nil
		s.jobPool = s.jobPool[:n-1]
		return job
	}
	return &jobState{}
}

// freeJob returns a retired job record to the pool (complete and the
// expired-drop shed are the chain's terminal points). While page
// registrations still name the job it is only marked retired; the last
// to fire recycles it (waitDone).
func (s *System) freeJob(job *jobState) {
	if job.waits > 0 {
		job.retired = true
		return
	}
	*job = jobState{steps: job.steps[:0], gen: job.gen + 1}
	s.jobPool = append(s.jobPool, job)
}

// nextJobSteps generates the next job's trace into buf's backing array.
// Fresh buffers start with room for the longest trace any stock workload
// emits, so a pooled buffer that first held a short job never regrows
// when it later draws a long one.
func (s *System) nextJobSteps(buf []workload.Step) []workload.Step {
	if cap(buf) == 0 {
		buf = make([]workload.Step, 0, 4*s.cfg.Workload.OpsPerJob+8)
	}
	return s.wl.NewJobSteps(buf)
}

// snapshot freezes the registry's cumulative counters at measurement
// start so collect can report steady-state (window-only) values.
func (s *System) snapshot() map[string]uint64 {
	return s.metrics.CounterSnapshot()
}

// collect builds the Result for the measurement window from the registry's
// window deltas.
func (s *System) collect(windowNs int64, snap map[string]uint64) Result {
	rec := s.recorder
	d := s.metrics.CounterDelta(snap)
	dHits := d["dramcache.hits"]
	dMisses := d["dramcache.misses"]
	missRatio := 0.0
	if dHits+dMisses > 0 {
		missRatio = float64(dMisses) / float64(dHits+dMisses)
	}
	meanIval := int64(0)
	if s.MissSignals.Value() > 0 {
		meanIval = windowNs * int64(len(s.cores)) / int64(s.MissSignals.Value())
	}
	res := Result{
		Mode:               s.cfg.Mode.String(),
		Workload:           s.wl.Name(),
		SimulatedNs:        windowNs,
		Jobs:               s.JobsDone.Value(),
		ThroughputJPS:      rec.Throughput(windowNs),
		MeanServiceNs:      int64(rec.Service.Mean()),
		P50ServiceNs:       rec.Service.Percentile(50),
		P99ServiceNs:       rec.Service.Percentile(99),
		P50ResponseNs:      rec.Response.Percentile(50),
		P99ResponseNs:      rec.Response.Percentile(99),
		P50QueueNs:         rec.Queueing.Percentile(50),
		P99QueueNs:         rec.Queueing.Percentile(99),
		DRAMCacheMissRatio: missRatio,
		MeanMissIntervalNs: meanIval,
		FlashReads:         d["flash.reads"],
		FlashWrites:        d["flash.writes"],
		GCRuns:             d["flash.gc_runs"],
		GCBlockedFraction:  s.flash.BlockedReadFraction(),
		ForcedSyncCount:    s.ForcedSync.Value(),
		P99FlashReadNs:     s.flash.ReadLatHist.Percentile(99),

		FlashRetriedReads:   d["flash.retried_reads"],
		FlashUncorrectables: d["flash.uncorrectable_reads"],
		FlashRecovered:      d["flash.recovered_reads"],
		FlashRemapMoves:     d["flash.remap_moves"],
		FlashBadBlocks:      s.flash.BadBlocks.Value(),
		BCRetries:           d["dramcache.bc_retries"],
		BCTimeouts:          d["dramcache.bc_timeouts"],
		BCFallbacks:         d["dramcache.bc_fallbacks"],
		WriteAmplification:  s.flash.WriteAmplification(),
		AdmissionBypassed:   d["dramcache.adm_bypassed"],
		BypassHits:          d["dramcache.bypass_hits"],
		BypassWritebacks:    d["dramcache.bypass_dirty_writebacks"],
		FlashPrograms:       d["flash.writes"] + d["flash.gc_page_moves"] + d["flash.remap_moves"],
		Counters:            d,

		Admitted:       d["system.admitted"],
		AdmissionSheds: d["system.admission_sheds"],
		QueueFullDrops: d["system.queue_full_drops"],
		ExpiredDrops:   d["system.expired_drops"],
		DeadlineMisses: d["system.deadline_miss"],
		GoodJobs:       d["system.good_jobs"],
		ExpiredInFlash: d["system.expired_in_flash"],
	}
	res.Offered = res.Admitted + res.AdmissionSheds + res.QueueFullDrops
	res.GoodputJPS = float64(res.GoodJobs) * 1e9 / float64(windowNs)
	return res
}

// RunClosedLoop drives the system at saturation: inflightPerCore jobs are
// kept outstanding on every core (the paper's "large job queue" for
// maximum-throughput measurement, Section V-A). Statistics cover only the
// window after warmupNs.
func (s *System) RunClosedLoop(inflightPerCore int, warmupNs, measureNs int64) Result {
	if inflightPerCore < 1 {
		panic("system: need at least one job in flight per core")
	}
	s.onJobDone = func(c *coreState) {
		s.spawnJob(c, s.eng.Now())
	}
	return s.runWindow(warmupNs, measureNs, false, func() {
		for _, c := range s.cores {
			for i := 0; i < inflightPerCore; i++ {
				s.spawnJob(c, 0)
			}
		}
	})
}

// runWindow owns the measurement window every driver shares. It fixes the
// logical window bounds, lets offer start the load, runs the warmup, arms
// the tracer and sampler over [warmupNs, warmupNs+measureNs], runs the
// window, and collects its Result. With drain set, requests still in
// flight at the window end run to completion with measurement on, so
// open-loop tail samples are complete.
func (s *System) runWindow(warmupNs, measureNs int64, drain bool, offer func()) Result {
	end := warmupNs + measureNs
	// The bounds are fixed before any load is offered so the flattened
	// path can gate inline-executed stages by logical event time
	// (measuredAt). A drained window never closes logically.
	s.mStart, s.mEnd = warmupNs, end
	if drain {
		s.mEnd = math.MaxInt64
	}
	offer()
	s.eng.RunUntil(warmupNs)
	s.measuring = true
	if s.trace != nil {
		s.dc.Trace = s.trace
	}
	if s.sampler != nil {
		// The sampler stops at end, so a drain runs sampler-free.
		s.sampler.Start(s.eng, warmupNs, end)
	}
	snap := s.snapshot()
	s.eng.RunUntil(end)
	if drain {
		s.eng.Run()
	}
	s.measuring = false
	s.dc.Trace = nil
	return s.collect(measureNs, snap)
}

// RunOpenLoop drives Poisson arrivals at the given mean inter-arrival gap
// (per system, spread round-robin across cores) for the tail-latency
// experiments (Figure 10). Requests arriving during warmup are served but
// not recorded. It is the unlimited special case of RunSource: every
// arrival is admitted, no queue bound, no deadlines.
func (s *System) RunOpenLoop(meanInterArrivalNs float64, warmupNs, measureNs int64) Result {
	return s.RunSource(SourceConfig{
		Arrivals: func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewPoisson(rng, meanInterArrivalNs)
		},
		WarmupNs:  warmupNs,
		MeasureNs: measureNs,
	})
}

// SourceConfig configures an open-loop source run (RunSource).
type SourceConfig struct {
	// Arrivals builds the arrival process from a seed-derived RNG stream
	// (the source's only randomness). Required.
	Arrivals func(rng *sim.RNG) loadgen.Arrivals
	// Controller decides admission per arrival; nil admits everything.
	Controller overload.Controller
	// QueueLimit bounds requests awaiting their first dispatch across the
	// machine; arrivals past the bound are dropped and counted. 0 means
	// unbounded.
	QueueLimit int
	// DeadlineNs, when positive, stamps each admitted request with an
	// absolute deadline of arrival + DeadlineNs; completions are split
	// into good jobs and deadline misses.
	DeadlineNs int64
	// DropExpired sheds requests whose deadline already passed at first
	// dispatch instead of serving them late (needs DeadlineNs > 0).
	DropExpired bool
	// ExpiryMarginNs tightens the DropExpired test: a request is shed at
	// first dispatch unless at least this much of its budget remains.
	// Without a margin only already-expired requests are shed, and every
	// request dispatched just under the wire is served into a deadline
	// miss — under sustained overload that cohort alone can exceed 1% of
	// completions and become the served p99. Set it to the service-tail
	// estimate (e.g. the uncongested p99): a request with less budget
	// than that left would have to beat the uncongested tail to make its
	// deadline.
	ExpiryMarginNs int64

	WarmupNs  int64
	MeasureNs int64
}

// queuedTotal is the machine-wide count of admitted requests still waiting
// for their first dispatch — the admission queue the source bounds.
func (s *System) queuedTotal() int {
	n := 0
	for _, c := range s.cores {
		n += c.queuedNew()
	}
	return n
}

// headOfLineAgeNs returns the age at now of the oldest request still
// waiting for its first dispatch, across cores — the worst head-of-line
// sojourn, for telemetry.
func (s *System) headOfLineAgeNs(now sim.Time) int64 {
	var oldest int64
	for _, c := range s.cores {
		if age := c.oldestNewAgeNs(now); age > oldest {
			oldest = age
		}
	}
	return oldest
}

// RunSource drives an open-loop arrival process through admission control
// into the machine: each arrival consults the bounded admission queue and
// the controller, and admitted requests spawn round-robin across cores
// with an optional deadline. An open-loop source keeps sending when the
// machine falls behind — exactly what a closed-loop driver cannot model —
// so this is the driver for overload experiments. Requests arriving
// during warmup are served but not recorded.
func (s *System) RunSource(cfg SourceConfig) Result {
	if cfg.Arrivals == nil {
		panic("system: RunSource needs an arrival process")
	}
	if cfg.DropExpired && cfg.DeadlineNs <= 0 {
		panic("system: DropExpired needs a deadline")
	}
	arr := cfg.Arrivals(s.rng.Split())
	inSystem := 0
	s.dropExpired = cfg.DropExpired
	s.expiryMarginNs = cfg.ExpiryMarginNs
	s.onJobDone = func(*coreState) { inSystem-- }
	if ctl := cfg.Controller; ctl != nil {
		s.onJobStart = func(job *jobState) {
			now := s.eng.Now()
			ctl.ObserveStart(now, now-job.req.ArrivedAt)
		}
	}
	next := 0
	var schedule func()
	end := cfg.WarmupNs + cfg.MeasureNs
	schedule = func() {
		now := s.eng.Now()
		if now >= end {
			return
		}
		switch {
		case cfg.QueueLimit > 0 && s.queuedTotal() >= cfg.QueueLimit:
			s.QueueFullDrops.Inc()
		case cfg.Controller != nil && !cfg.Controller.Admit(now,
			overload.QueueState{InSystem: inSystem, Queued: s.queuedTotal()}):
			s.AdmissionSheds.Inc()
		default:
			s.Admitted.Inc()
			inSystem++
			c := s.cores[next%len(s.cores)]
			next++
			job := s.spawnJob(c, now)
			if cfg.DeadlineNs > 0 {
				job.deadline = now + sim.Time(cfg.DeadlineNs)
			}
		}
		s.eng.After(sim.Time(arr.NextGap()), schedule)
	}
	return s.runWindow(cfg.WarmupNs, cfg.MeasureNs, true, func() {
		s.eng.After(sim.Time(arr.NextGap()), schedule)
	})
}
