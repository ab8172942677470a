package system

// Observability wiring: the system registers every component's counters
// into one obs.Registry at construction, and (when a tracer is attached)
// emits per-request lifecycle spans from the core event paths. Span
// emission is gated on the measurement window and on a nil check, so an
// untraced run pays one predicted branch per site and a traced run is
// bit-identical to an untraced one (the tracer schedules nothing and
// consumes no randomness).

import (
	"fmt"

	"astriflash/internal/obs"
	"astriflash/internal/obs/timeline"
	"astriflash/internal/sim"
)

// registerMetrics populates the registry; called once from New after all
// components exist.
func (s *System) registerMetrics() {
	r := s.metrics
	r.Counter("system.jobs_done", &s.JobsDone)
	r.Counter("system.miss_signals", &s.MissSignals)
	r.Counter("system.forced_sync", &s.ForcedSync)
	// Admission and deadline accounting (RunSource; zero elsewhere).
	r.Counter("system.admitted", &s.Admitted)
	r.Counter("system.admission_sheds", &s.AdmissionSheds)
	r.Counter("system.queue_full_drops", &s.QueueFullDrops)
	r.Counter("system.expired_drops", &s.ExpiredDrops)
	r.Counter("system.deadline_miss", &s.DeadlineMisses)
	r.Counter("system.good_jobs", &s.GoodJobs)
	r.Counter("system.expired_in_flash", &s.ExpiredInFlash)
	r.Histogram("system.miss_interval_ns", s.MissInterval)
	// The recorder's latency distributions, under the registry namespace so
	// the timeline sampler can window them (response is what SLOs govern).
	r.Histogram("system.response_ns", s.recorder.Response)
	r.Histogram("system.service_ns", s.recorder.Service)
	r.Histogram("system.queueing_ns", s.recorder.Queueing)
	// Instantaneous run-queue pressure across all cores: jobs waiting for a
	// first dispatch plus miss-blocked threads waiting to resume.
	r.Gauge("system.queue_depth", func() float64 {
		var n int
		for _, c := range s.cores {
			n += c.queuedNew() + c.queuedPending()
		}
		return float64(n)
	})
	// Age of the oldest not-yet-dispatched request across cores: the
	// head-of-line sojourn an admission controller is trying to bound.
	r.Gauge("system.head_of_line_age_ns", func() float64 {
		return float64(s.headOfLineAgeNs(s.eng.Now()))
	})
	s.dc.RegisterMetrics(r)
	s.flash.RegisterMetrics(r)
	for i, c := range s.cores {
		if c.sched != nil {
			c.sched.RegisterMetrics(r, fmt.Sprintf("uthread.core%d.", i))
		}
	}
}

// Metrics exposes the registry for drivers and tests.
func (s *System) Metrics() *obs.Registry { return s.metrics }

// EnableTracing attaches t; spans are recorded during the measurement
// window of the next run. Must be called before the run starts.
func (s *System) EnableTracing(t *obs.Tracer) { s.trace = t }

// EnableTimeline attaches a timeline sampler; the drivers arm it over the
// measurement window of the next run. Like tracing, sampling is strictly
// observational — a sampled run's Result is bit-identical to an unsampled
// one. Must be called before the run starts.
func (s *System) EnableTimeline(sm *timeline.Sampler) { s.sampler = sm }

// Timeline returns the attached sampler, or nil.
func (s *System) Timeline() *timeline.Sampler { return s.sampler }

// Tracer returns the attached tracer, or nil.
func (s *System) Tracer() *obs.Tracer { return s.trace }

// tr returns the tracer when spans should be recorded, else nil. Request
// capture follows the measurement window so trace size tracks the window;
// requests straddling the window edge appear as partial span sets, which
// the analyzer detects (they lack the queue span or complete marker) and
// excludes.
func (s *System) tr() *obs.Tracer {
	if s.measuring {
		return s.trace
	}
	return nil
}

// measuredAt reports whether an event at logical time t lies inside the
// run's measurement window. The per-access path (flat.go) executes stage
// code ahead of its logical event time, so gating on the measuring flag
// (the clock's view) would mis-window inline stages; the bounds are known
// before the run starts, so logical-time gating observes exactly what an
// event firing at t would have. The window is half-open on the left
// because the drivers flip measuring after draining events at the warmup
// instant itself.
func (s *System) measuredAt(t sim.Time) bool {
	return t > s.mStart && t <= s.mEnd
}

// spanAt records a request-scoped span emitted at logical event time
// evTime: the span helper for stages the per-access path runs inline,
// gated on the measurement window by logical time (measuredAt) so each
// traces as if its own event had fired at evTime.
func (c *coreState) spanAt(evTime sim.Time, job *jobState, st obs.Stage, page uint64, start, end sim.Time) {
	if c.s.trace == nil || end <= start || !c.s.measuredAt(evTime) {
		return
	}
	c.s.trace.Emit(obs.Span{Req: job.req.ID, Core: c.id, Stage: st, Page: page, Start: start, End: end})
}

// span records one request-scoped span, dropping zero-length segments
// (stage markers with real zero duration would only bloat the stream; the
// complete marker is emitted directly, not through this helper).
func (c *coreState) span(job *jobState, st obs.Stage, page uint64, start, end sim.Time) {
	t := c.s.tr()
	if t == nil || end <= start {
		return
	}
	t.Emit(obs.Span{Req: job.req.ID, Core: c.id, Stage: st, Page: page, Start: start, End: end})
}

// missCost is the descheduling price of one miss: ROB flush plus the
// user-level thread switch (Section IV-C2).
func (c *coreState) missCost() int64 {
	return flushBaseNs + ROBEntries/2*flushPerEntryNs + c.sched.Config().SwitchCost
}

// emitMissTail reconstructs, at resume time, the spans between a
// switch-on-miss (or OS fault) and the thread regaining the core:
// flush+switch, the flash wait, and the post-ready scheduling delay.
// Emitted lazily at resume because only then are all boundaries known.
func (c *coreState) emitMissTail(job *jobState, now sim.Time) {
	t := c.s.tr()
	if t == nil {
		return
	}
	page := uint64(job.steps[job.pc].Access.Page())
	ready := job.readyAt
	switch {
	case c.sched != nil:
		// The switch window can be cut short: an aged promotion may hand
		// the core back before flush+switch nominally ends, and before the
		// page arrived (ready == 0, the forced-progress resume).
		se := job.missAt + c.missCost()
		if se > now {
			se = now
		}
		if ready <= 0 || ready > now {
			ready = now
		}
		if ready < se {
			ready = se
		}
		c.span(job, obs.StageFlushSwitch, page, job.missAt, se)
		c.span(job, obs.StageFlashWait, page, se, ready)
		c.span(job, obs.StageSchedWait, page, ready, now)
	case c.runq != nil:
		// flash-wait and os-install were emitted by the fault's
		// OnPageReady callback; only the run-queue delay remains.
		if ready <= 0 || ready > now {
			ready = now
		}
		c.span(job, obs.StageSchedWait, page, ready, now)
	}
}
