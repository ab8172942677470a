package astriflash

import (
	"flag"
	"os"
	"testing"

	"astriflash/internal/obs"
)

var updateGolden = flag.Bool("update", false, "regenerate testdata golden files")

// goldenTraceMachine builds the fixed configuration behind the committed
// golden trace: one AstriFlash core over a small dataset, saturated, with
// a sub-millisecond measurement window to keep the committed file small
// while still exercising the full miss lifecycle.
func goldenTraceMachine(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultExpConfig()
	cfg.Cores = 1
	cfg.DatasetBytes = 8 << 20
	cfg.Inflight = 8
	m, err := cfg.machine(point{seed: 0, opts: cfg.options(AstriFlash, "tatp")})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAnalyzeGolden pins the `astritrace analyze` report byte-for-byte
// against a committed trace. The trace file freezes the wire format; the
// report file freezes the analyzer. Regenerate both after an intentional
// change with: go test -run TestAnalyzeGolden -update
func TestAnalyzeGolden(t *testing.T) {
	const (
		traceFile  = "testdata/golden.trace.json"
		reportFile = "testdata/golden.analyze.txt"
	)
	if *updateGolden {
		m := goldenTraceMachine(t)
		m.EnableTracing()
		m.RunSaturated(8, 1_000_000, 250_000)
		f, err := os.Create(traceFile)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.WriteTrace(f); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}

	f, err := os.Open(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	got := obs.Analyze(spans, obs.AnalyzeOptions{Slowest: 2}).String()

	if *updateGolden {
		if err := os.WriteFile(reportFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(reportFile)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("analyze report diverged from %s (rerun with -update if intentional):\n--- got ---\n%s\n--- want ---\n%s",
			reportFile, got, want)
	}
}

// TestGoldenTraceReproducible guards the committed trace itself: the fixed
// configuration must still produce byte-identical spans, so the golden
// file stays a faithful capture rather than drifting into a fossil.
func TestGoldenTraceReproducible(t *testing.T) {
	f, err := os.Open("testdata/golden.trace.json")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want, err := obs.ReadTrace(f)
	if err != nil {
		t.Fatal(err)
	}
	m := goldenTraceMachine(t)
	m.EnableTracing()
	m.RunSaturated(8, 1_000_000, 250_000)
	got := m.sys.Tracer().Spans()
	// The committed file is in canonical order (WriteTrace sorts); bring
	// the freshly captured spans into the same order before comparing.
	obs.SortSpans(got)
	if len(got) != len(want) {
		t.Fatalf("regenerated trace has %d spans, committed file has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("span %d diverged:\n got  %+v\n want %+v", i, got[i], want[i])
		}
	}
}
