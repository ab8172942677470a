// Package timeline turns the metrics registry into time series: a periodic
// sampler driven by the simulated clock snapshots every registered counter,
// gauge, and histogram at a fixed interval, yielding per-window views
// (throughput, latency percentiles, queue depth, device activity) instead
// of one aggregate per run. On top of the series sit declarative SLOs with
// multi-window burn-rate evaluation (slo.go), text/CSV/OpenMetrics exports
// (export.go), and report rendering with span-level attribution of
// offending windows (render.go).
//
// Sampling is pure, the same discipline as span tracing: the sampler only
// reads component state and schedules its own read-only ticks, consumes no
// randomness, and stops at the measurement end, so a sampled run's results
// are bit-identical to an unsampled run's and the simulation hot path is
// untouched (the sampler costs one event per window, not per access).
package timeline

import (
	"fmt"
	"sort"

	"astriflash/internal/obs"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

// Config sizes the sampler.
type Config struct {
	// IntervalNs is the sampling period on the simulated clock.
	IntervalNs int64
	// SLOs are evaluated per window: each needs its metric histogram
	// sampled with its threshold so windows carry exact bad-event counts.
	SLOs []SLO
}

// DefaultIntervalNs is one simulated millisecond: 20 windows over the
// default 20 ms measurement window.
const DefaultIntervalNs = 1_000_000

// HistWindow is one histogram's distribution over one sample window.
type HistWindow struct {
	Count uint64
	Mean  float64
	P50Ns int64
	P99Ns int64
	// P999Ns is the window's 99.9th percentile; windows with few
	// observations degenerate toward the maximum bucket, as expected.
	P999Ns int64
}

// Sample is one window of the timeline: counter deltas, gauge values, and
// histogram window distributions between StartNs and EndNs.
type Sample struct {
	// Point is the sweep-point index for multi-point captures (0 for
	// single runs), mirroring the span tracer's Point field.
	Point int
	// Window is the window's index within its point, starting at 0.
	Window int
	// StartNs and EndNs bound the window on the simulated clock.
	StartNs int64
	EndNs   int64
	// Counters holds each registered counter's delta over the window.
	Counters map[string]uint64
	// Gauges holds each gauge sampled at EndNs.
	Gauges map[string]float64
	// Hists holds each registered histogram's window distribution.
	Hists map[string]HistWindow
	// Bad maps SLO name to the window's count of observations above that
	// SLO's threshold (bucket resolution, see stats.HistogramWindow.Advance).
	Bad map[string]uint64
}

// DurNs returns the window length.
func (s Sample) DurNs() int64 { return s.EndNs - s.StartNs }

// Throughput returns the window's completion rate in events/sec for the
// given counter (jobs/s for "system.jobs_done").
func (s Sample) Throughput(counter string) float64 {
	d := s.DurNs()
	if d <= 0 {
		return 0
	}
	return float64(s.Counters[counter]) / (float64(d) / 1e9)
}

// histTrack pairs one registered histogram with its window view and the
// SLO thresholds it must count.
type histTrack struct {
	name       string
	win        *stats.HistogramWindow
	thresholds []int64  // sorted per slos order
	sloNames   []string // parallel to thresholds
}

// Sampler snapshots a registry at a fixed simulated-clock interval.
// Construct with New, arm with Start from a driver at measurement start,
// and read Samples after the run. A Sampler observes one run; it is not
// reusable across runs.
type Sampler struct {
	cfg     Config
	reg     *obs.Registry
	tracks  []histTrack
	prev    map[string]uint64
	samples []Sample
	startNs int64
	endNs   int64
	lastNs  int64
	window  int
	started bool
}

// New builds a sampler over reg. The registry's histogram set is frozen at
// this point; SLO metrics must name registered histograms.
func New(cfg Config, reg *obs.Registry) (*Sampler, error) {
	if cfg.IntervalNs <= 0 {
		cfg.IntervalNs = DefaultIntervalNs
	}
	s := &Sampler{cfg: cfg, reg: reg}
	names := reg.HistogramNames()
	s.tracks = make([]histTrack, 0, len(names)) // fixed capacity: &s.tracks[i] stays valid
	byMetric := map[string]*histTrack{}
	for _, name := range names {
		s.tracks = append(s.tracks, histTrack{name: name})
		byMetric[name] = &s.tracks[len(s.tracks)-1]
	}
	for _, slo := range cfg.SLOs {
		tr, ok := byMetric[slo.Metric]
		if !ok {
			return nil, fmt.Errorf("timeline: SLO %q names unregistered histogram %q (have %v)",
				slo.Name, slo.Metric, reg.HistogramNames())
		}
		tr.thresholds = append(tr.thresholds, slo.ThresholdNs)
		tr.sloNames = append(tr.sloNames, slo.Name)
	}
	return s, nil
}

// SLOs returns the objectives the sampler was configured with.
func (s *Sampler) SLOs() []SLO { return s.cfg.SLOs }

// IntervalNs returns the configured sampling period.
func (s *Sampler) IntervalNs() int64 { return s.cfg.IntervalNs }

// Start arms sampling on eng over [startNs, endNs]: the first window opens
// at startNs (which must be now), ticks fire every interval, and a final
// partial window closes at endNs when the span does not divide evenly.
// The sampler schedules nothing past endNs, so open-loop drains after the
// measurement window run sampler-free.
func (s *Sampler) Start(eng *sim.Engine, startNs, endNs int64) {
	if s.started {
		panic("timeline: sampler started twice (samplers observe one run)")
	}
	if endNs <= startNs {
		panic(fmt.Sprintf("timeline: empty sampling window [%d, %d]", startNs, endNs))
	}
	s.started = true
	s.startNs, s.endNs, s.lastNs = startNs, endNs, startNs
	s.prev = s.reg.CounterSnapshot()
	for i := range s.tracks {
		s.tracks[i].win = stats.NewHistogramWindow(s.reg.HistogramByName(s.tracks[i].name))
	}
	s.scheduleNext(eng)
}

// scheduleNext queues the next tick, clamped to the measurement end.
func (s *Sampler) scheduleNext(eng *sim.Engine) {
	next := s.lastNs + s.cfg.IntervalNs
	if next > s.endNs {
		next = s.endNs
	}
	eng.At(next, func() { s.tick(eng) })
}

// tick closes the current window and, if the measurement continues,
// schedules the next one. Ticks only read component state: no randomness,
// no writes, so sampling cannot perturb the simulation.
func (s *Sampler) tick(eng *sim.Engine) {
	now := eng.Now()
	cur := s.reg.CounterSnapshot()
	sample := Sample{
		Window:   s.window,
		StartNs:  s.lastNs,
		EndNs:    now,
		Counters: make(map[string]uint64, len(cur)),
		Gauges:   s.reg.GaugeSnapshot(),
		Hists:    make(map[string]HistWindow, len(s.tracks)),
	}
	for n, v := range cur {
		sample.Counters[n] = v - s.prev[n]
	}
	for i := range s.tracks {
		tr := &s.tracks[i]
		st := tr.win.Advance(tr.thresholds...)
		sample.Hists[tr.name] = HistWindow{
			Count: st.Count, Mean: st.Mean,
			P50Ns: st.P50, P99Ns: st.P99, P999Ns: st.P999,
		}
		for ti, sloName := range tr.sloNames {
			if sample.Bad == nil {
				sample.Bad = make(map[string]uint64)
			}
			sample.Bad[sloName] = st.Above[ti]
		}
	}
	s.prev = cur
	s.samples = append(s.samples, sample)
	s.window++
	s.lastNs = now
	if now < s.endNs {
		s.scheduleNext(eng)
	}
}

// Samples returns the recorded windows in time order.
func (s *Sampler) Samples() []Sample { return s.samples }

// StampPoint writes the sweep-point index into every recorded sample and
// returns them, the timeline analogue of the tracer's point stamping.
func (s *Sampler) StampPoint(point int) []Sample {
	for i := range s.samples {
		s.samples[i].Point = point
	}
	return s.samples
}

// MetricNames lists the union of metric column names across samples, each
// kind sorted: counters, then gauges, then histograms. It defines the
// column order of the CSV and OpenMetrics exports.
func MetricNames(samples []Sample) (counters, gauges, hists []string) {
	cs, gs, hs := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, s := range samples {
		for n := range s.Counters {
			cs[n] = true
		}
		for n := range s.Gauges {
			gs[n] = true
		}
		for n := range s.Hists {
			hs[n] = true
		}
	}
	for n := range cs {
		counters = append(counters, n)
	}
	for n := range gs {
		gauges = append(gauges, n)
	}
	for n := range hs {
		hists = append(hists, n)
	}
	sort.Strings(counters)
	sort.Strings(gauges)
	sort.Strings(hists)
	return counters, gauges, hists
}
