package astriflash

// Observation at the driver level. EnableTracing arms a machine's
// per-request lifecycle tracer; EnableTimeline arms its per-window
// registry sampler. TailRun packages the fig-10-style observed sweep
// behind `astribench -trace` and `-timeline`: one run yields both the
// Chrome trace-event JSON (open in chrome://tracing / Perfetto; `astritrace
// analyze` rebuilds per-request critical paths and prints the
// p50/p99/p99.9 stage breakdown) and the self-describing timeline CSV
// (`astritrace timeline` re-renders and re-evaluates it), OpenMetrics text,
// and per-window tables with SLO burn-rate verdicts. Observation is
// passive: a traced or sampled run's Metrics are bit-identical to a plain
// run's.

import (
	"fmt"
	"io"

	"astriflash/internal/obs"
	"astriflash/internal/obs/timeline"
	"astriflash/internal/runner"
)

// EnableTracing arms span capture for this machine's next run. Spans cover
// the measurement window; trace volume scales with window length, so keep
// traced windows short (a few ms). Must be called before the run.
func (m *Machine) EnableTracing() {
	m.sys.EnableTracing(obs.NewTracer())
}

// TraceSpanCount returns the number of spans captured so far.
func (m *Machine) TraceSpanCount() int {
	if t := m.sys.Tracer(); t != nil {
		return t.Len()
	}
	return 0
}

// WriteTrace streams the machine's captured spans as a Chrome trace-event
// JSON array. It errors if EnableTracing was not called.
func (m *Machine) WriteTrace(w io.Writer) error {
	t := m.sys.Tracer()
	if t == nil {
		return fmt.Errorf("astriflash: tracing was not enabled on this machine")
	}
	return obs.WriteTrace(w, t.Spans())
}

// EnableTimeline arms per-window sampling for this machine's next run:
// every registry counter, gauge, and histogram is snapshotted each
// intervalNs of simulated time across the measurement window (0 means
// timeline.DefaultIntervalNs). SLOs, when given, must name registered
// histograms; each window then carries exact above-threshold counts for
// burn-rate evaluation. Must be called before the run.
func (m *Machine) EnableTimeline(intervalNs int64, slos []timeline.SLO) error {
	s, err := timeline.New(timeline.Config{IntervalNs: intervalNs, SLOs: slos}, m.sys.Metrics())
	if err != nil {
		return err
	}
	m.sys.EnableTimeline(s)
	return nil
}

// Registry exposes the machine's metrics registry for read-only
// inspection (counter/gauge/histogram snapshots in CLI tools).
func (m *Machine) Registry() *obs.Registry { return m.sys.Metrics() }

// TimelineSamples returns the windows recorded by the machine's last run,
// or nil if EnableTimeline was not called.
func (m *Machine) TimelineSamples() []timeline.Sample {
	if s := m.sys.Timeline(); s != nil {
		return s.Samples()
	}
	return nil
}

// TailOptions sizes a TailRun.
type TailOptions struct {
	// Loads are the open-loop load fractions of the DRAM-only maximum
	// (nil = 0.6 and 0.9).
	Loads []float64
	// SLOSpecs are objectives in timeline.ParseSLO syntax ("p99<150us",
	// "system.service_ns:p99.9<2ms"), evaluated after the derived one.
	SLOSpecs []string
}

// tailFactor scales the derived objective: p99(system.response_ns) must
// stay under tailFactor x the DRAM-only baseline's p99 service latency,
// the paper's "within 1.5x of DRAM" claim.
const tailFactor = 1.5

// tailPoint is one TailRun sweep point; its slice index is its point
// stamp in the span and sample streams.
type tailPoint struct {
	Label string
	// Load is the point's target load fraction of the DRAM-only maximum
	// (0 for the saturated baseline).
	Load    float64
	Metrics Metrics
	samples []timeline.Sample
	spans   []obs.Span
}

// TailCapture is the result of TailRun. Points[0] is the DRAM-only
// saturated baseline (traced, unsampled); Points[1:] are the load points
// (traced and sampled). Each point carries Label, Load, and Metrics.
type TailCapture struct {
	// SLOs are the evaluated objectives: the derived p99 < 1.5x DRAM-only
	// objective first, then TailOptions.SLOSpecs in order.
	SLOs   []timeline.SLO
	Points []tailPoint
}

// Spans returns the merged span stream across points, point-major in
// sweep order (deterministic for a given config and seed).
func (tc *TailCapture) Spans() []obs.Span {
	var out []obs.Span
	for _, p := range tc.Points {
		out = append(out, p.spans...)
	}
	return out
}

// Samples returns the merged windows across points, point-major in sweep
// order (deterministic for a given config and seed).
func (tc *TailCapture) Samples() []timeline.Sample {
	var out []timeline.Sample
	for _, p := range tc.Points {
		out = append(out, p.samples...)
	}
	return out
}

// WriteJSON streams the span stream as a Chrome trace-event JSON array;
// the trace pid is the sweep point index.
func (tc *TailCapture) WriteJSON(w io.Writer) error {
	return obs.WriteTrace(w, tc.Spans())
}

// Analyze reconstructs per-request critical paths and renders the stage-
// breakdown report (the same output as `astritrace analyze`).
func (tc *TailCapture) Analyze() string {
	return obs.Analyze(tc.Spans(), obs.AnalyzeOptions{}).String()
}

// Verdicts evaluates the capture's SLOs over all windows.
func (tc *TailCapture) Verdicts() []timeline.Verdict {
	return timeline.Evaluate(tc.Samples(), tc.SLOs)
}

// WriteCSV streams the windows in the timeline CSV format.
func (tc *TailCapture) WriteCSV(w io.Writer) error {
	return timeline.WriteCSV(w, tc.Samples(), timeline.DefaultIntervalNs, tc.SLOs)
}

// WriteOpenMetrics streams the windows in OpenMetrics text format.
func (tc *TailCapture) WriteOpenMetrics(w io.Writer) error {
	return timeline.WriteOpenMetrics(w, tc.Samples())
}

// Render formats the per-window tables, SLO verdicts, and the span-level
// tail anatomy of violating windows.
func (tc *TailCapture) Render() string {
	labels := map[int]string{}
	for i, p := range tc.Points {
		labels[i] = p.Label
	}
	samples, verdicts := tc.Samples(), tc.Verdicts()
	out := timeline.Render(samples, tc.SLOs, verdicts, timeline.RenderOptions{PointLabels: labels})
	return out + timeline.RenderAnatomy(timeline.Attribute(tc.Spans(), samples, verdicts))
}

// TailRun is the fig-10-style observed run. A saturated DRAM-only baseline
// (sweep point 0) sizes the load axis and the derived SLO threshold, then
// AstriFlash serves Poisson arrivals at each load fraction (points 1..n).
// Every point captures lifecycle spans over its measurement window; the
// load points also sample the timeline every timeline.DefaultIntervalNs.
// Load points run under the configured worker pool and merge in point
// order, so the capture is byte-identical for any worker count.
func TailRun(cfg ExpConfig, workloadName string, opt TailOptions) (*TailCapture, error) {
	if workloadName == "" {
		workloadName = "tatp"
	}
	loads := opt.Loads
	if loads == nil {
		loads = []float64{0.6, 0.9}
	}
	var extra []timeline.SLO
	for _, spec := range opt.SLOSpecs {
		s, err := timeline.ParseSLO(spec)
		if err != nil {
			return nil, err
		}
		extra = append(extra, s)
	}

	m0, err := NewMachine(cfg.optionsAt(0, DRAMOnly, workloadName))
	if err != nil {
		return nil, err
	}
	m0.EnableTracing()
	base := m0.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	if base.ThroughputJPS == 0 || base.MeanServiceNs == 0 {
		return nil, fmt.Errorf("astriflash: DRAM-only baseline is degenerate")
	}
	slos := append([]timeline.SLO{timeline.NewLatencySLO(
		fmt.Sprintf("p99<%.2gx-dram", tailFactor), "system.response_ns", 99,
		int64(tailFactor*float64(base.P99ServiceNs)))}, extra...)

	pts, err := runner.Map(len(loads), cfg.workers(), func(i int) (tailPoint, error) {
		point := 1 + i
		gap := 1e9 / (base.ThroughputJPS * loads[i])
		m, err := NewMachine(cfg.optionsAt(point, AstriFlash, workloadName))
		if err != nil {
			return tailPoint{}, err
		}
		if err := m.EnableTimeline(timeline.DefaultIntervalNs, slos); err != nil {
			return tailPoint{}, err
		}
		m.EnableTracing()
		res := m.RunPoisson(gap, cfg.WarmupNs, cfg.MeasureNs)
		return tailPoint{
			Label:   fmt.Sprintf("%s/load=%.2f", res.Mode, loads[i]),
			Load:    loads[i],
			Metrics: res,
			samples: m.sys.Timeline().StampPoint(point),
			spans:   stampPoint(m.sys.Tracer().Spans(), point),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &TailCapture{
		SLOs: slos,
		Points: append([]tailPoint{{
			Label:   fmt.Sprintf("%s/saturated", base.Mode),
			Metrics: base,
			spans:   stampPoint(m0.sys.Tracer().Spans(), 0),
		}}, pts...),
	}, nil
}

// stampPoint writes the sweep-point index into every span.
func stampPoint(spans []obs.Span, point int) []obs.Span {
	for i := range spans {
		spans[i].Point = point
	}
	return spans
}
