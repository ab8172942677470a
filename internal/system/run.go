package system

import (
	"errors"
	"fmt"
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
	// FlashPrograms is the page programs the device counted in the
	// window, where each page is programmed; it should equal host writes
	// + GC moves + remap copies, each counted where it is caused. It is
	// the wear quantity the economics model prices.
	FlashPrograms uint64

	// Open-loop admission and deadline observables (RunSource runs; all
	// zero for closed-loop runs). Every open-loop run counts Offered and
	// Admitted; the drops and deadline outcomes need a queue bound, a
	// controller or a deadline.
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

// stepBounder is a workload that states the longest trace one of its jobs
// emits.
type stepBounder interface{ MaxJobSteps() int }

// nextJobSteps generates the next job's trace into buf's backing array.
// A fresh buffer starts with room for the workload's longest trace when
// the workload states it (tatp), so a pooled buffer never regrows. Other
// workloads' buffers start at 4*OpsPerJob+8 steps, which holds every
// arrayswap and tinykv trace; where traces follow probe chains or trees
// that grow at run time, a pooled buffer regrows when a job outgrows
// every one it held before.
func (s *System) nextJobSteps(buf []workload.Step) []workload.Step {
	if cap(buf) == 0 {
		n := 4*s.cfg.Workload.OpsPerJob + 8
		if b, ok := s.wl.(stepBounder); ok {
			n = b.MaxJobSteps()
		}
		buf = make([]workload.Step, 0, n)
	}
	return s.wl.NewJobSteps(buf)
}

// snapshot freezes the registry's cumulative counters, and the device's
// page programs, at measurement start so collect can report steady-state
// (window-only) values.
func (s *System) snapshot() (map[string]uint64, uint64) {
	return s.metrics.CounterSnapshot(), s.flash.ProgramCount()
}

// collect builds the Result for the measurement window from the registry's
// window deltas and the device's page programs since programs0.
func (s *System) collect(windowNs int64, snap map[string]uint64, programs0 uint64) Result {
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
		FlashPrograms:       s.flash.ProgramCount() - programs0,
		Counters:            d,

		Admitted:       d["system.admitted"],
		AdmissionSheds: d["system.admission_sheds"],
		QueueFullDrops: d["system.queue_full_drops"],
		ExpiredDrops:   d["system.expired_drops"],
		DeadlineMisses: d["system.deadline_miss"],
		GoodJobs:       d["system.good_jobs"],
		ExpiredInFlash: d["system.expired_in_flash"],
	}
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
	if s.ran {
		panic(errRerun)
	}
	s.onJobDone = func(c *coreState) { s.spawnJob(c, s.eng.Now()) }
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
	s.ran = true
	end := warmupNs + measureNs
	// The bounds are fixed before any load is offered, so every event,
	// and every stage the flattened path runs inline, is gated by the
	// logical time it belongs to (measuredAt). A drained window never
	// closes logically.
	s.mStart, s.mEnd = warmupNs, end
	if drain {
		s.mEnd = math.MaxInt64
	}
	offer()
	s.eng.RunUntil(warmupNs)
	s.dc.Trace = s.trace
	if s.sampler != nil {
		// The sampler stops at end, so a drain runs sampler-free.
		s.sampler.Start(s.eng, warmupNs, end)
	}
	snap, programs0 := s.snapshot()
	s.eng.RunUntil(end)
	if drain {
		s.eng.Run()
	}
	s.dc.Trace = nil
	return s.collect(measureNs, snap, programs0)
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

// Source configures one open-loop run (RunSource): an arrival process, an
// admission policy, and deadline semantics. The root package exports it
// as astriflash.OverloadRun. Unlike a closed loop, the source keeps
// sending at the offered rate when the machine falls behind, so it can
// drive the system past its knee.
type Source struct {
	// Shape selects the arrival process: "poisson" (default), "mmpp"
	// (bursty on/off), "diurnal" (sinusoidal rate curve), or
	// "flashcrowd" (rate step).
	Shape string
	// MeanGapNs is the mean inter-arrival gap across the whole machine;
	// the offered load is 1e9/MeanGapNs jobs/s.
	MeanGapNs float64
	// Burstiness and DwellNs shape the MMPP: the rate split between the
	// burst and calm states (in [0,1)) and the mean state dwell time.
	Burstiness float64
	DwellNs    float64
	// Amplitude and PeriodNs shape the diurnal curve.
	Amplitude float64
	PeriodNs  float64
	// Surge, SurgeStartNs, SurgeDurNs shape the flash crowd: the rate
	// multiplier and the window it applies over.
	Surge        float64
	SurgeStartNs float64
	SurgeDurNs   float64

	// Controller selects the admission policy: "none" (default),
	// "static" (concurrency limit), or "codel" (adaptive shedding on
	// queueing delay).
	Controller string
	// StaticLimit is the static controller's in-system concurrency bound.
	StaticLimit int
	// CoDelTargetNs/CoDelIntervalNs tune the adaptive controller
	// (defaults: 50 us target, 1 ms interval).
	CoDelTargetNs   int64
	CoDelIntervalNs int64

	// QueueLimit bounds requests awaiting first dispatch (0 = unbounded);
	// arrivals past the bound are dropped and counted.
	QueueLimit int
	// DeadlineNs stamps each admitted request with arrival+DeadlineNs;
	// completions split into good jobs and deadline misses.
	DeadlineNs int64
	// DropExpired sheds requests whose deadline passed while they queued,
	// instead of serving them late. ExpiryMarginNs tightens the test:
	// requests with less budget than the margin left at first dispatch
	// are shed too, since they could only finish in time by beating the
	// service tail.
	DropExpired    bool
	ExpiryMarginNs int64

	WarmupNs  int64
	MeasureNs int64
}

// errRerun rejects a second run on one machine: the window bounds are
// absolute simulated times, and JobsDone and the recorder's histograms are
// cumulative, so a second window would report the first one's results.
var errRerun = errors.New("system: a machine runs once; build a new one for each run")

// parse validates the source and returns its arrival process, still to be
// seeded, and its admission controller (nil admits everything).
func (src Source) parse() (func(rng *sim.RNG) loadgen.Arrivals, overload.Controller, error) {
	if src.MeanGapNs <= 0 {
		return nil, nil, errors.New("system: an open-loop source needs a positive mean gap")
	}
	if src.DropExpired && src.DeadlineNs <= 0 {
		return nil, nil, errors.New("system: DropExpired needs a positive DeadlineNs")
	}
	var arrivals func(rng *sim.RNG) loadgen.Arrivals
	var err error
	switch src.Shape {
	case "", "poisson":
		arrivals = func(rng *sim.RNG) loadgen.Arrivals { return loadgen.NewPoisson(rng, src.MeanGapNs) }
	case "mmpp":
		err = loadgen.CheckMMPP(src.MeanGapNs, src.Burstiness, src.DwellNs)
		arrivals = func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewMMPP(rng, src.MeanGapNs, src.Burstiness, src.DwellNs)
		}
	case "diurnal":
		err = loadgen.CheckDiurnal(src.MeanGapNs, src.Amplitude, src.PeriodNs)
		arrivals = func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewDiurnal(rng, src.MeanGapNs, src.Amplitude, src.PeriodNs)
		}
	case "flashcrowd":
		err = loadgen.CheckFlashCrowd(src.MeanGapNs, src.Surge, src.SurgeStartNs, src.SurgeDurNs)
		arrivals = func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewFlashCrowd(rng, src.MeanGapNs, src.Surge, src.SurgeStartNs, src.SurgeDurNs)
		}
	default:
		err = fmt.Errorf("system: unknown arrival shape %q", src.Shape)
	}
	if err != nil {
		return nil, nil, err
	}
	switch src.Controller {
	case "", "none":
		return arrivals, nil, nil
	case "static":
		if src.StaticLimit < 1 {
			return nil, nil, errors.New("system: static controller needs a positive limit")
		}
		return arrivals, overload.NewStatic(src.StaticLimit), nil
	case "codel":
		target, interval := src.CoDelTargetNs, src.CoDelIntervalNs
		if target <= 0 {
			target = 50_000
		}
		if interval <= 0 {
			interval = 1_000_000
		}
		return arrivals, overload.NewCoDel(target, interval), nil
	}
	return nil, nil, fmt.Errorf("system: unknown admission controller %q", src.Controller)
}

// RunSource drives an open-loop arrival process through admission control
// into the machine: each arrival consults the bounded admission queue and
// the controller, and admitted requests spawn round-robin across cores
// with an optional deadline. Requests arriving during warmup are served
// but not recorded. A source that does not validate, or a machine that
// has already run, is an error, and the machine is left as it was.
func (s *System) RunSource(src Source) (Result, error) {
	if s.ran {
		return Result{}, errRerun
	}
	newArrivals, ctl, err := src.parse()
	if err != nil {
		return Result{}, err
	}
	arr := newArrivals(s.rng.Split())
	s.src = src
	inSystem := 0
	s.onJobDone = func(*coreState) { inSystem-- }
	if ctl != nil {
		s.onJobStart = func(job *jobState) {
			now := s.eng.Now()
			ctl.ObserveStart(now, now-job.req.ArrivedAt)
		}
	}
	// offered counts the window's arrivals apart from their outcomes, so
	// Offered = Admitted + AdmissionSheds + QueueFullDrops is a law that
	// a lost or doubled outcome count breaks.
	var offered uint64
	next := 0
	var schedule func()
	end := src.WarmupNs + src.MeasureNs
	schedule = func() {
		now := s.eng.Now()
		if now >= end {
			return
		}
		if s.measuredAt(now) {
			offered++
		}
		switch {
		case src.QueueLimit > 0 && s.queuedTotal() >= src.QueueLimit:
			s.QueueFullDrops.Inc()
		case ctl != nil && !ctl.Admit(now,
			overload.QueueState{InSystem: inSystem, Queued: s.queuedTotal()}):
			s.AdmissionSheds.Inc()
		default:
			s.Admitted.Inc()
			inSystem++
			c := s.cores[next%len(s.cores)]
			next++
			job := s.spawnJob(c, now)
			if src.DeadlineNs > 0 {
				job.deadline = now + sim.Time(src.DeadlineNs)
			}
		}
		s.eng.After(sim.Time(arr.NextGap()), schedule)
	}
	res := s.runWindow(src.WarmupNs, src.MeasureNs, true, func() {
		s.eng.After(sim.Time(arr.NextGap()), schedule)
	})
	res.Offered = offered
	return res, nil
}
