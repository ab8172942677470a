package stats

import (
	"math"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Mean() != 0 || h.Percentile(99) != 0 {
		t.Fatal("empty histogram should report zeros")
	}
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if h.Min() != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 1/100", h.Min(), h.Max())
	}
	if m := h.Mean(); math.Abs(m-50.5) > 1e-9 {
		t.Fatalf("mean = %v, want 50.5", m)
	}
}

func TestHistogramPercentileAccuracy(t *testing.T) {
	h := NewHistogram()
	// Uniform values in [0, 1e6): percentile estimates must land within
	// the documented ~3% relative error.
	for i := int64(0); i < 1000000; i += 100 {
		h.Record(i)
	}
	for _, p := range []float64{50, 90, 95, 99, 99.9} {
		got := float64(h.Percentile(p))
		want := p / 100 * 1e6
		if math.Abs(got-want)/want > 0.04 {
			t.Fatalf("p%v = %v, want within 4%% of %v", p, got, want)
		}
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Min() != 0 {
		t.Fatalf("negative record should clamp to 0, got min=%d", h.Min())
	}
}

func TestHistogramPercentileMonotonic(t *testing.T) {
	if err := quick.Check(func(seed int64) bool {
		h := NewHistogram()
		x := uint64(seed)
		for i := 0; i < 500; i++ {
			x = x*6364136223846793005 + 1442695040888963407
			h.Record(int64(x % 1000000))
		}
		prev := int64(0)
		for p := 1.0; p <= 100; p += 1.0 {
			v := h.Percentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramPercentileBounds(t *testing.T) {
	if err := quick.Check(func(vals []uint32) bool {
		if len(vals) == 0 {
			return true
		}
		h := NewHistogram()
		var mn, mx int64 = math.MaxInt64, math.MinInt64
		for _, v := range vals {
			x := int64(v)
			h.Record(x)
			if x < mn {
				mn = x
			}
			if x > mx {
				mx = x
			}
		}
		for _, p := range []float64{0, 1, 50, 99, 100} {
			v := h.Percentile(p)
			if v < mn || v > mx {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramReset(t *testing.T) {
	h := NewHistogram()
	h.Record(42)
	h.Reset()
	if h.Count() != 0 || h.Percentile(50) != 0 {
		t.Fatal("reset did not clear histogram")
	}
}

func TestHistogramString(t *testing.T) {
	h := NewHistogram()
	if h.String() != "histogram{empty}" {
		t.Fatalf("empty string = %q", h.String())
	}
	h.Record(10)
	if h.String() == "" {
		t.Fatal("non-empty histogram should render")
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(9)
	if c.Value() != 10 {
		t.Fatalf("value = %d, want 10", c.Value())
	}
	// 10 events over 2 seconds = 5/s.
	if r := c.Rate(2e9); math.Abs(r-5) > 1e-9 {
		t.Fatalf("rate = %v, want 5", r)
	}
	if c.Rate(0) != 0 {
		t.Fatal("zero span should give zero rate")
	}
}

func TestRatio(t *testing.T) {
	var r Ratio
	if r.MissRatio() != 0 {
		t.Fatal("empty ratio should be zero")
	}
	for i := 0; i < 97; i++ {
		r.Hit()
	}
	for i := 0; i < 3; i++ {
		r.Miss()
	}
	if math.Abs(r.MissRatio()-0.03) > 1e-12 {
		t.Fatalf("miss ratio = %v, want 0.03", r.MissRatio())
	}
	if r.Total() != 100 {
		t.Fatalf("total = %d, want 100", r.Total())
	}
}

func TestSampleExactPercentiles(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	if p := s.Percentile(50); p != 50 {
		t.Fatalf("p50 = %v, want 50", p)
	}
	if p := s.Percentile(99); p != 99 {
		t.Fatalf("p99 = %v, want 99", p)
	}
	if p := s.Percentile(100); p != 100 {
		t.Fatalf("p100 = %v, want 100", p)
	}
	if p := s.Percentile(0); p != 1 {
		t.Fatalf("p0 = %v, want 1", p)
	}
}

func TestSampleMean(t *testing.T) {
	var s Sample
	if s.Mean() != 0 {
		t.Fatal("empty sample should have mean 0")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if m := s.Mean(); math.Abs(m-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", m)
	}
}

func TestSamplePercentileMatchesSort(t *testing.T) {
	if err := quick.Check(func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		var s Sample
		clean := make([]float64, 0, len(vals))
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Add(v)
			clean = append(clean, v)
		}
		if len(clean) == 0 {
			return true
		}
		sort.Float64s(clean)
		got := s.Percentile(50)
		rank := int(math.Ceil(0.5 * float64(len(clean))))
		return got == clean[rank-1]
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := Table{Header: []string{"workload", "value"}}
	tb.AddRow("tatp", "0.95")
	tb.AddRow("tpcc-long-name", "0.9")
	out := tb.String()
	if out == "" {
		t.Fatal("table did not render")
	}
	// Header, separator, two rows.
	lines := 0
	for _, c := range out {
		if c == '\n' {
			lines++
		}
	}
	if lines != 4 {
		t.Fatalf("rendered %d lines, want 4:\n%s", lines, out)
	}
}

func TestPlotRendersSeries(t *testing.T) {
	p := Plot{
		Title:  "test chart",
		XLabel: "load",
		YLabel: "latency",
		Width:  40,
		Height: 10,
		Series: []Series{
			{Name: "a", X: []float64{0, 0.5, 1}, Y: []float64{1, 2, 10}},
			{Name: "b", X: []float64{0, 0.5, 1}, Y: []float64{5, 5, 5}, Marker: '+'},
		},
	}
	out := p.Render()
	if !strings.Contains(out, "test chart") || !strings.Contains(out, "*") || !strings.Contains(out, "+") {
		t.Fatalf("plot missing content:\n%s", out)
	}
	if !strings.Contains(out, "a") || !strings.Contains(out, "b") {
		t.Fatal("legend missing")
	}
}

func TestPlotLogScale(t *testing.T) {
	p := Plot{
		LogY:   true,
		Series: []Series{{Name: "tail", X: []float64{0, 1, 2}, Y: []float64{1, 10, 1000}}},
	}
	out := p.Render()
	if out == "" {
		t.Fatal("log plot empty")
	}
	// Non-positive values are skipped, not crashed on.
	p.Series[0].Y[0] = 0
	if p.Render() == "" {
		t.Fatal("log plot with zero value failed")
	}
}

func TestPlotEmpty(t *testing.T) {
	out := Plot{Title: "nothing"}.Render()
	if !strings.Contains(out, "no data") {
		t.Fatalf("empty plot: %q", out)
	}
}

func TestPlotDegenerateRanges(t *testing.T) {
	p := Plot{Series: []Series{{Name: "pt", X: []float64{1}, Y: []float64{1}}}}
	if p.Render() == "" {
		t.Fatal("single point plot failed")
	}
}

// TestHistogramCountAbove checks the resolution of a window's Above
// counts, which the timeline's SLO verdicts read.
func TestHistogramCountAbove(t *testing.T) {
	h := NewHistogram()
	w := NewHistogramWindow(h)
	for i := int64(1); i <= 100; i++ {
		h.Record(i * 1000)
	}
	// Exact at small values (dense sub-bucket region covers v < 32).
	h2 := NewHistogram()
	w2 := NewHistogramWindow(h2)
	for i := int64(0); i < 20; i++ {
		h2.Record(i)
	}
	if got := w2.Advance(9).Above[0]; got != 10 {
		t.Fatalf("above 9 = %d, want 10", got)
	}
	// At bucket resolution: never overcounts, undercounts by at most one
	// bucket's population.
	st := w.Advance(50_000, h.Max())
	if above := st.Above[0]; above > 50 || above < 45 {
		t.Fatalf("above 50000 = %d, want 45-50 (true count 50)", above)
	}
	if st.Above[1] != 0 {
		t.Fatalf("above max = %d, want 0", st.Above[1])
	}
}

func TestHistogramWindowAdvance(t *testing.T) {
	h := NewHistogram()
	w := NewHistogramWindow(h)

	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	st := w.Advance()
	if st.Count != 100 {
		t.Fatalf("window 1 count = %d, want 100", st.Count)
	}
	if math.Abs(st.Mean-50.5) > 1e-9 {
		t.Fatalf("window 1 mean = %v, want 50.5", st.Mean)
	}
	if st.P50 < 45 || st.P50 > 50 {
		t.Fatalf("window 1 p50 = %d, want ~50", st.P50)
	}

	// Second window sees only the new observations.
	for i := 0; i < 10; i++ {
		h.Record(1_000_000)
	}
	st = w.Advance()
	if st.Count != 10 {
		t.Fatalf("window 2 count = %d, want 10", st.Count)
	}
	if st.P50 < 900_000 || st.P99 < 900_000 {
		t.Fatalf("window 2 percentiles %d/%d should reflect only the 1ms burst", st.P50, st.P99)
	}

	// Empty window.
	st = w.Advance()
	if st.Count != 0 || st.P50 != 0 || st.Mean != 0 {
		t.Fatalf("empty window = %+v, want zeros", st)
	}

	// The source histogram is untouched: cumulative queries still work.
	if h.Count() != 110 {
		t.Fatalf("source count = %d, want 110", h.Count())
	}
}

func TestHistogramWindowAbove(t *testing.T) {
	h := NewHistogram()
	w := NewHistogramWindow(h)
	for i := 0; i < 90; i++ {
		h.Record(10)
	}
	for i := 0; i < 10; i++ {
		h.Record(1_000_000)
	}
	st := w.Advance(1000, 2_000_000)
	if len(st.Above) != 2 {
		t.Fatalf("Above has %d entries, want 2", len(st.Above))
	}
	if st.Above[0] != 10 {
		t.Fatalf("Above[1000] = %d, want 10", st.Above[0])
	}
	if st.Above[1] != 0 {
		t.Fatalf("Above[2ms] = %d, want 0", st.Above[1])
	}
	// Next window: thresholds count only fresh observations.
	h.Record(5000)
	st = w.Advance(1000)
	if st.Count != 1 || st.Above[0] != 1 {
		t.Fatalf("window 2 = %+v, want count 1 above 1", st)
	}
}

// Buckets are allocated by the first Record; every query and window must
// treat a histogram that never recorded as empty.
func TestHistogramBucketsAllocatedOnFirstRecord(t *testing.T) {
	h := NewHistogram()
	if h.buckets != nil {
		t.Fatal("NewHistogram allocated buckets")
	}
	w := NewHistogramWindow(h)
	if h.Count() != 0 || h.Percentile(99) != 0 || h.String() != "histogram{empty}" {
		t.Fatal("empty histogram reported observations")
	}
	h.Record(100)
	if st := w.Advance(50); st.Count != 1 || st.Above[0] != 1 {
		t.Fatalf("window after first record: %+v", st)
	}
}
