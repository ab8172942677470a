package uthread

import "astriflash/internal/obs"

// RegisterMetrics names the scheduler's counters and gauges in r under the
// given prefix (schedulers are per-core, e.g. "uthread.core3.").
func (s *Scheduler) RegisterMetrics(r *obs.Registry, prefix string) {
	r.Counter(prefix+"spawned", &s.Spawned)
	r.Counter(prefix+"switches", &s.SwitchCount)
	r.Counter(prefix+"aged_promotions", &s.AgedPromos)
	r.Counter(prefix+"ready_promotions", &s.ReadyPromos)
	r.Counter(prefix+"blocked_on_full", &s.BlockedFull)
	r.Gauge(prefix+"avg_flash_response_ns", func() float64 { return s.avgFlash })
	r.Gauge(prefix+"pending_depth", func() float64 { return float64(s.pending.Len()) })
}
