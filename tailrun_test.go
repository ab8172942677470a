package astriflash

import (
	"bytes"
	"os"
	"reflect"
	"strings"
	"testing"

	"astriflash/internal/obs"
	"astriflash/internal/obs/timeline"
)

// quickExpConfig sizes TailRun tests: small enough to run in a
// couple of seconds, long enough for a handful of sample windows.
func quickExpConfig() ExpConfig {
	cfg := DefaultExpConfig()
	cfg.Cores = 2
	cfg.DatasetBytes = 8 << 20
	cfg.Inflight = 8
	cfg.WarmupNs = 2_000_000
	cfg.MeasureNs = 5_000_000
	return cfg
}

// TestTimelinePurity pins the sampler's core contract: a timeline-sampled
// run's Metrics are bit-identical to an unsampled run's. The sampler may
// only read component state — any event perturbation, RNG draw, or counter
// write would surface here.
func TestTimelinePurity(t *testing.T) {
	cfg := quickExpConfig()
	run := func(sampled bool, open bool) Metrics {
		mode := AstriFlash
		m, err := cfg.machine(point{seed: 0, opts: cfg.options(mode, "tatp")})
		if err != nil {
			t.Fatal(err)
		}
		if sampled {
			slo := timeline.NewLatencySLO("p99<1ms", "system.response_ns", 99, 1_000_000)
			if err := m.EnableTimeline(500_000, []timeline.SLO{slo}); err != nil {
				t.Fatal(err)
			}
		}
		if open {
			return m.RunPoisson(20_000, cfg.WarmupNs, cfg.MeasureNs)
		}
		return m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	}
	for _, tc := range []struct {
		name string
		open bool
	}{{"closed-loop", false}, {"open-loop", true}} {
		t.Run(tc.name, func(t *testing.T) {
			plain := run(false, tc.open)
			sampled := run(true, tc.open)
			if !reflect.DeepEqual(plain, sampled) {
				t.Fatalf("sampling perturbed the run:\nunsampled %+v\nsampled   %+v", plain, sampled)
			}
		})
	}
}

// traceCfg shrinks the traced windows: span volume scales with the
// measurement window, and the contracts under test are window-invariant.
func traceCfg() ExpConfig {
	cfg := detExp()
	cfg.MeasureNs = 2_000_000
	return cfg
}

// TestTraceReconciles is the acceptance property: on a fig-10-style traced
// run, every fully captured request's stage durations sum exactly to its
// end-to-end service latency, for every point (DRAM-only saturated and
// AstriFlash under Poisson load).
func TestTraceReconciles(t *testing.T) {
	tc, err := TailRun(traceCfg(), "tatp", TailOptions{Loads: []float64{0.7}})
	if err != nil {
		t.Fatal(err)
	}
	rep := obs.Analyze(tc.Spans(), obs.AnalyzeOptions{})
	if rep.Complete == 0 {
		t.Fatal("no complete requests captured")
	}
	if rep.Reconciled != rep.Complete || rep.MaxDriftNs != 0 {
		t.Fatalf("stage sums drift from service latency: %d/%d reconciled, max drift %d ns",
			rep.Reconciled, rep.Complete, rep.MaxDriftNs)
	}
	if len(rep.Points) != 2 {
		t.Fatalf("points = %v, want 2 sweep points", rep.Points)
	}
	// The AstriFlash point must exhibit the miss lifecycle.
	var sawFlashWait, sawFetch bool
	for _, sp := range tc.Spans() {
		if sp.Point != 1 {
			continue
		}
		switch sp.Stage {
		case obs.StageFlashWait, obs.StageSyncWait:
			sawFlashWait = true
		case obs.StageFlashRead:
			sawFetch = true
		}
	}
	if !sawFlashWait || !sawFetch {
		t.Fatalf("AstriFlash point missing miss lifecycle: flashWait=%v fetch=%v", sawFlashWait, sawFetch)
	}
	out := rep.String()
	for _, want := range []string{"p50", "p99", "p99.9", "flash-wait"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// tailCapture runs TailRun at the given worker count and returns the
// serialized trace JSON and timeline CSV.
func tailCapture(t *testing.T, cfg ExpConfig, workers int, opts TailOptions) (trace, csv []byte) {
	t.Helper()
	cfg.Workers = workers
	tc, err := TailRun(cfg, "tatp", opts)
	if err != nil {
		t.Fatal(err)
	}
	var tb, cb bytes.Buffer
	if err := tc.WriteJSON(&tb); err != nil {
		t.Fatal(err)
	}
	if err := tc.WriteCSV(&cb); err != nil {
		t.Fatal(err)
	}
	return tb.Bytes(), cb.Bytes()
}

// TestTraceIdenticalAcrossWorkerCounts: the traced sweep's span stream
// (and hence its serialized trace) is byte-identical for any worker count.
func TestTraceIdenticalAcrossWorkerCounts(t *testing.T) {
	opts := TailOptions{Loads: []float64{0.5, 0.8}}
	a, _ := tailCapture(t, traceCfg(), 1, opts)
	b, _ := tailCapture(t, traceCfg(), 8, opts)
	if !bytes.Equal(a, b) {
		t.Fatalf("trace bytes diverge across worker counts (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTimelineWorkerDeterminism pins the sweep contract: the timeline CSV
// is byte-identical at any worker count.
func TestTimelineWorkerDeterminism(t *testing.T) {
	_, one := tailCapture(t, quickExpConfig(), 1, TailOptions{})
	_, eight := tailCapture(t, quickExpConfig(), 8, TailOptions{})
	if !bytes.Equal(one, eight) {
		t.Fatalf("timeline CSV differs between workers=1 (%d bytes) and workers=8 (%d bytes)",
			len(one), len(eight))
	}
	if len(one) == 0 || !bytes.HasPrefix(one, []byte("# astriflash timeline v1")) {
		t.Fatalf("capture missing magic header:\n%.200s", one)
	}
}

// TestTailRunShape sanity-checks the capture: the baseline is traced but
// unsampled; every load point is traced and carries windows covering the
// measurement span with populated latency histograms; verdicts evaluate
// the derived and the parsed SLO.
func TestTailRunShape(t *testing.T) {
	cfg := quickExpConfig()
	tc, err := TailRun(cfg, "tatp", TailOptions{SLOSpecs: []string{"p99<10ms"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tc.Points) != 3 {
		t.Fatalf("got %d points, want baseline + 2 loads", len(tc.Points))
	}
	base := tc.Points[0]
	if base.Metrics.P99ServiceNs <= 0 || base.Load != 0 {
		t.Fatalf("baseline point malformed: load %v, p99 service %d", base.Load, base.Metrics.P99ServiceNs)
	}
	if len(base.spans) == 0 || len(base.samples) != 0 {
		t.Fatalf("baseline must be traced and unsampled: %d spans, %d windows", len(base.spans), len(base.samples))
	}
	if len(tc.SLOs) != 2 {
		t.Fatalf("want derived + parsed SLO, got %+v", tc.SLOs)
	}
	wantWindows := int(cfg.MeasureNs / timeline.DefaultIntervalNs)
	for i, p := range tc.Points[1:] {
		if len(p.samples) != wantWindows {
			t.Fatalf("%s: %d windows, want %d", p.Label, len(p.samples), wantWindows)
		}
		if len(p.spans) == 0 || p.spans[0].Point != i+1 {
			t.Fatalf("%s: load point spans missing or misstamped", p.Label)
		}
		var n uint64
		for _, s := range p.samples {
			h, ok := s.Hists["system.response_ns"]
			if !ok {
				t.Fatalf("%s window %d missing system.response_ns", p.Label, s.Window)
			}
			n += h.Count
		}
		if n == 0 {
			t.Fatalf("%s: no latency observations across windows", p.Label)
		}
	}
	verdicts := tc.Verdicts()
	if len(verdicts) != 2 {
		t.Fatalf("got %d verdicts, want 2", len(verdicts))
	}
	for _, v := range verdicts {
		if v.TotalCount == 0 {
			t.Fatalf("verdict %s evaluated zero observations", v.SLO.Name)
		}
	}
}

// TestSamplingDoesNotPerturbSpans: TailRun load points are traced and
// sampled at once, so the sampler must leave the span stream untouched —
// a traced+sampled run emits exactly the spans of a traced-only run.
func TestSamplingDoesNotPerturbSpans(t *testing.T) {
	cfg := traceCfg()
	run := func(sampled bool) []obs.Span {
		m, err := cfg.machine(point{seed: 1, opts: cfg.options(AstriFlash, "tatp")})
		if err != nil {
			t.Fatal(err)
		}
		m.EnableTracing()
		if sampled {
			slo := timeline.NewLatencySLO("p99<1ms", "system.response_ns", 99, 1_000_000)
			if err := m.EnableTimeline(500_000, []timeline.SLO{slo}); err != nil {
				t.Fatal(err)
			}
		}
		m.RunPoisson(20_000, cfg.WarmupNs, cfg.MeasureNs)
		return m.sys.Tracer().Spans()
	}
	traced, both := run(false), run(true)
	if len(traced) == 0 {
		t.Fatal("no spans captured")
	}
	if !reflect.DeepEqual(traced, both) {
		t.Fatalf("sampling perturbed the span stream: %d spans traced-only, %d traced+sampled", len(traced), len(both))
	}
}

// TestTracingDoesNotPerturbResults: tracing is pure observation — a traced
// run's Metrics equal an untraced run's bit for bit.
func TestTracingDoesNotPerturbResults(t *testing.T) {
	cfg := traceCfg()
	for _, mode := range []Mode{AstriFlash, OSSwap, FlashSync} {
		run := func(traced bool) Metrics {
			m, err := cfg.machine(point{seed: 3, opts: cfg.options(mode, "tatp")})
			if err != nil {
				t.Fatal(err)
			}
			if traced {
				m.EnableTracing()
			}
			return m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
		}
		plain, traced := run(false), run(true)
		if !reflect.DeepEqual(plain, traced) {
			t.Fatalf("%v: traced run diverged from untraced:\n plain  %+v\n traced %+v", mode, plain, traced)
		}
	}
}

// TestTraceRoundTripThroughFile: the serialized trace parses back to the
// exact span stream.
func TestTraceRoundTripThroughFile(t *testing.T) {
	cfg := traceCfg()
	m, err := cfg.machine(point{seed: 0, opts: cfg.options(AstriFlash, "tatp")})
	if err != nil {
		t.Fatal(err)
	}
	m.EnableTracing()
	m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	if m.TraceSpanCount() == 0 {
		t.Fatal("no spans captured")
	}
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := obs.ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m.sys.Tracer().Spans()) {
		t.Fatalf("trace round trip mismatch: %d spans in, %d out", m.sys.Tracer().Len(), len(got))
	}
}

// TestRunProfileRecorded guards the self-profiling layer: every run must
// record wall time and fired events, and the process aggregates advance.
func TestRunProfileRecorded(t *testing.T) {
	before := SelfProfile()
	cfg := quickExpConfig()
	m, err := cfg.machine(point{seed: 0, opts: cfg.options(AstriFlash, "tatp")})
	if err != nil {
		t.Fatal(err)
	}
	m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	p := m.LastRunProfile()
	if p.Events == 0 || p.WallNs <= 0 || p.SimNs < cfg.WarmupNs+cfg.MeasureNs {
		t.Fatalf("run profile not recorded: %+v", p)
	}
	if p.EventsPerSec() <= 0 {
		t.Fatalf("events/sec = %v", p.EventsPerSec())
	}
	after := SelfProfile()
	if after.Runs != before.Runs+1 || after.Events < before.Events+p.Events {
		t.Fatalf("aggregates did not advance: before %+v after %+v", before, after)
	}
}

// TestTimelineGolden pins the timeline wire formats byte-for-byte: the CSV
// (interchange), the OpenMetrics export, and the rendered report behind
// `astritrace timeline`. Regenerate after an intentional format change
// with: go test -run TestTimelineGolden -update
func TestTimelineGolden(t *testing.T) {
	const (
		csvFile    = "testdata/golden.timeline.csv"
		omFile     = "testdata/golden.openmetrics.txt"
		reportFile = "testdata/golden.timeline.txt"
	)
	if *updateGolden {
		m := goldenTraceMachine(t)
		slo := timeline.NewLatencySLO("p99<250us", "system.response_ns", 99, 250_000)
		if err := m.EnableTimeline(50_000, []timeline.SLO{slo}); err != nil {
			t.Fatal(err)
		}
		m.RunSaturated(8, 1_000_000, 250_000)
		var buf bytes.Buffer
		if err := timeline.WriteCSV(&buf, m.TimelineSamples(), 50_000, []timeline.SLO{slo}); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(csvFile, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	raw, err := os.ReadFile(csvFile)
	if err != nil {
		t.Fatal(err)
	}
	tl, err := timeline.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	// Round-trip: re-encoding the decoded capture must reproduce the file.
	var reenc bytes.Buffer
	if err := timeline.WriteCSV(&reenc, tl.Samples, tl.IntervalNs, tl.SLOs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, reenc.Bytes()) {
		t.Fatalf("CSV round-trip diverged from %s (rerun with -update if intentional)", csvFile)
	}

	var om bytes.Buffer
	if err := timeline.WriteOpenMetrics(&om, tl.Samples); err != nil {
		t.Fatal(err)
	}
	report := timeline.Render(tl.Samples, tl.SLOs, timeline.Evaluate(tl.Samples, tl.SLOs),
		timeline.RenderOptions{})

	for _, g := range []struct {
		path string
		got  string
	}{{omFile, om.String()}, {reportFile, report}} {
		if *updateGolden {
			if err := os.WriteFile(g.path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(g.path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Fatalf("%s diverged (rerun with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
				g.path, g.got, want)
		}
	}
}

// TestGoldenTimelineReproducible guards the committed capture itself: the
// fixed configuration must still produce the identical CSV, so the golden
// file stays a faithful capture.
func TestGoldenTimelineReproducible(t *testing.T) {
	raw, err := os.ReadFile("testdata/golden.timeline.csv")
	if err != nil {
		t.Fatal(err)
	}
	tl, err := timeline.ReadCSV(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m := goldenTraceMachine(t)
	if err := m.EnableTimeline(tl.IntervalNs, tl.SLOs); err != nil {
		t.Fatal(err)
	}
	m.RunSaturated(8, 1_000_000, 250_000)
	var buf bytes.Buffer
	if err := timeline.WriteCSV(&buf, m.TimelineSamples(), tl.IntervalNs, tl.SLOs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, buf.Bytes()) {
		t.Fatal("regenerated timeline CSV diverged from the committed golden file")
	}
}
