package obs

import (
	"bytes"
	"reflect"
	"sort"
	"strings"
	"testing"

	"astriflash/internal/stats"
)

func TestRegistrySnapshotDelta(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	hits := uint64(0)
	r.Counter("a.count", &c)
	r.CounterFunc("a.hits", func() uint64 { return hits })
	r.Gauge("a.occ", func() float64 { return 0.5 })
	h := stats.NewHistogram()
	r.Histogram("a.lat", h)

	c.Add(3)
	hits = 10
	snap := r.CounterSnapshot()
	c.Add(4)
	hits = 15
	d := r.CounterDelta(snap)
	if d["a.count"] != 4 || d["a.hits"] != 5 {
		t.Fatalf("delta = %v, want a.count=4 a.hits=5", d)
	}
	if got := r.CounterDelta(nil); got["a.count"] != 7 {
		t.Fatalf("absolute delta = %v, want a.count=7", got)
	}
	if g := r.GaugeSnapshot(); g["a.occ"] != 0.5 {
		t.Fatalf("gauge = %v", g)
	}
	if r.HistogramByName("a.lat") != h {
		t.Fatal("histogram lookup failed")
	}
	if snap := r.CounterSnapshot(); len(snap) != 2 {
		t.Fatalf("counters = %v, want a.count and a.hits", snap)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	var c stats.Counter
	r.Counter("x", &c)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Gauge("x", func() float64 { return 0 })
}

func TestStageNamesRoundTrip(t *testing.T) {
	for st := Stage(0); st < stageCount; st++ {
		got, ok := StageFromName(st.String())
		if !ok || got != st {
			t.Fatalf("stage %v round-trips to (%v, %v)", st, got, ok)
		}
	}
	if _, ok := StageFromName("nope"); ok {
		t.Fatal("unknown name resolved")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	in := []Span{
		{Point: 0, Req: 1, Core: 2, Stage: StageCompute, Start: 100, End: 350},
		{Point: 0, Req: 1, Core: 2, Stage: StageDRAM, Page: 77, Start: 350, End: 512},
		{Point: 1, Fetch: 9, Core: -1, Stage: StageFlashRead, Page: 77, Start: 400, End: 25_000},
		{Point: 0, Req: 1, Core: 2, Stage: StageComplete, Start: 512, End: 512},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\n in  %+v\n out %+v", in, out)
	}
}

func TestReadTraceRejectsMalformed(t *testing.T) {
	for name, in := range map[string]string{
		"end before start": `[{"name":"compute","args":{"start_ns":10,"end_ns":5}}]`,
		"trailing bracket": `[]]garbage`,
		"trailing value":   "[]\n{}",
	} {
		if spans, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: %q accepted as %+v", name, in, spans)
		}
	}
	// Zero-length spans (queue, complete) and trailing whitespace are legal.
	in := `[{"name":"queue","args":{"start_ns":7,"end_ns":7}}]` + " \n\t"
	if _, err := ReadTrace(strings.NewReader(in)); err != nil {
		t.Errorf("%q rejected: %v", in, err)
	}
}

// TestTracerIsPassive pins the no-perturbation contract: emitting spans
// must not allocate per-call state beyond the growing span slice, consume
// randomness, or schedule events — Emit only appends.
func TestTracerIsPassive(t *testing.T) {
	tr := NewTracer()
	for i := 0; i < 100; i++ {
		tr.Emit(Span{Req: uint64(i), Stage: StageCompute, Start: int64(i), End: int64(i + 1)})
	}
	if tr.Len() != 100 {
		t.Fatalf("len = %d", tr.Len())
	}
	if id := tr.NextFetchID(); id != 1 {
		t.Fatalf("first fetch id = %d", id)
	}
}

func TestAnalyzeReconciles(t *testing.T) {
	// Two complete requests and one window-partial one. Request 1's
	// service spans tile [100, 700]; request 2's tile [200, 260].
	spans := []Span{
		{Req: 1, Core: 0, Stage: StageQueue, Start: 40, End: 100},
		{Req: 1, Core: 0, Stage: StageCompute, Start: 100, End: 300},
		{Req: 1, Core: 0, Stage: StageDRAM, Start: 300, End: 450},
		{Req: 1, Core: 0, Stage: StageFlashWait, Start: 450, End: 700, Page: 5},
		{Req: 1, Core: 0, Stage: StageComplete, Start: 700, End: 700},
		{Req: 2, Core: 1, Stage: StageQueue, Start: 200, End: 200},
		{Req: 2, Core: 1, Stage: StageCompute, Start: 200, End: 260},
		{Req: 2, Core: 1, Stage: StageComplete, Start: 260, End: 260},
		{Req: 3, Core: 0, Stage: StageCompute, Start: 650, End: 690},
		{Fetch: 1, Core: -1, Stage: StageFlashRead, Start: 460, End: 690, Page: 5},
	}
	rep := Analyze(spans, AnalyzeOptions{Slowest: 1})
	if rep.Requests != 3 || rep.Complete != 2 || rep.Partial != 1 {
		t.Fatalf("requests=%d complete=%d partial=%d", rep.Requests, rep.Complete, rep.Partial)
	}
	if rep.Reconciled != 2 || rep.MaxDriftNs != 0 {
		t.Fatalf("reconciled=%d drift=%d, want 2/0", rep.Reconciled, rep.MaxDriftNs)
	}
	if rep.ServiceRow.P99Ns != 600 {
		t.Fatalf("service p99 = %d, want 600", rep.ServiceRow.P99Ns)
	}
	if len(rep.Slowest) != 1 || rep.Slowest[0].Req != 1 || rep.Slowest[0].ServiceNs != 600 {
		t.Fatalf("slowest = %+v", rep.Slowest)
	}
	if len(rep.FetchRows) != 1 || rep.FetchRows[0].Stage != StageFlashRead {
		t.Fatalf("fetch rows = %+v", rep.FetchRows)
	}
	out := rep.String()
	for _, want := range []string{"flash-wait", "2/2 requests", "slow request"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryNamesSortedAndSnapshots(t *testing.T) {
	r := NewRegistry()
	// Register deliberately out of order: *Names() must come back sorted.
	r.Gauge("z.gauge", func() float64 { return 2 })
	r.Gauge("a.gauge", func() float64 { return 1 })
	hz := stats.NewHistogram()
	ha := stats.NewHistogram()
	r.Histogram("z.hist", hz)
	r.Histogram("a.hist", ha)

	for _, tc := range []struct {
		kind string
		got  []string
	}{
		{"gauges", r.GaugeNames()},
		{"histograms", r.HistogramNames()},
	} {
		if !sort.StringsAreSorted(tc.got) {
			t.Fatalf("%s names not sorted: %v", tc.kind, tc.got)
		}
	}
	if got := r.GaugeNames(); len(got) != 2 || got[0] != "a.gauge" {
		t.Fatalf("GaugeNames = %v", got)
	}

	for i := int64(1); i <= 200; i++ {
		ha.Record(i)
	}
	snap := r.HistogramSnapshot()
	if len(snap) != 2 {
		t.Fatalf("HistogramSnapshot has %d entries, want 2", len(snap))
	}
	if st := snap["a.hist"]; st.Count != 200 || st.P50Ns != ha.Percentile(50) || st.P99Ns != ha.Percentile(99) {
		t.Fatalf("a.hist snapshot = %+v", st)
	}
	if st := snap["z.hist"]; st.Count != 0 || st.P50Ns != 0 || st.P99Ns != 0 {
		t.Fatalf("empty z.hist snapshot = %+v", st)
	}
}
