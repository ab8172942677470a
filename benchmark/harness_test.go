package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"astriflash"
)

func TestQuartiles(t *testing.T) {
	for _, tc := range []struct {
		in          []float64
		q1, med, q3 float64
	}{
		{[]float64{5, 1, 4, 2, 3}, 2, 3, 4},
		{[]float64{4, 1, 3, 2}, 1.75, 2.5, 3.25},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	} {
		orig := append([]float64(nil), tc.in...)
		q1, med, q3 := quartiles(tc.in)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v, %v; want %v, %v, %v", orig, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
		for i := range orig {
			if tc.in[i] != orig[i] {
				t.Fatalf("quartiles reordered its input: %v", tc.in)
			}
		}
	}
}

func TestDigestIgnoresCounterOrder(t *testing.T) {
	names := []string{"flash.reads", "dramcache.hits", "system.jobs_done", "uthread.core0.switches"}
	a := astriflash.Metrics{Jobs: 3, Counters: map[string]uint64{}}
	b := astriflash.Metrics{Jobs: 3, Counters: map[string]uint64{}}
	for i, n := range names {
		a.Counters[n] = uint64(i + 1)
		b.Counters[names[len(names)-1-i]] = uint64(len(names) - i)
	}
	if digest(a) != digest(b) {
		t.Fatalf("equal metrics, different digests: %s vs %s", digest(a), digest(b))
	}
	b.Counters["flash.reads"]++
	if digest(a) == digest(b) {
		t.Fatal("digest ignores a counter change")
	}
}

func foldFile(t *testing.T, name string) map[string]float64 {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	fold, err := foldTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	return fold
}

func TestFoldTraces(t *testing.T) {
	for _, tc := range []struct {
		file string
		want map[string]float64
	}{
		// A runtime frame innermost is charged to the first simulator
		// frame below it; the GC worker has none.
		{"cpu.traces", map[string]float64{
			"system": 10e6, "dramcache": 20e6, "cachehier": 10e6, "": 20e6, "obs": 1.2e9,
		}},
		{"heap.traces", map[string]float64{
			"": 64.05 * 1024, "workload": 2.69 * (1 << 20), "flash": 1.5 * (1 << 20), "stats": 512 * 1024,
		}},
	} {
		got := foldFile(t, tc.file)
		if len(got) != len(tc.want) {
			t.Errorf("%s: fold %v, want %v", tc.file, got, tc.want)
			continue
		}
		for k, v := range tc.want {
			if math.Abs(got[k]-v) > 1e-6*v {
				t.Errorf("%s: layer %q = %v, want %v", tc.file, k, got[k], v)
			}
		}
	}
}

func TestSharesSumToOne(t *testing.T) {
	s := shares(foldFile(t, "cpu.traces"), hostLayers, "gc")
	var sum float64
	for _, v := range s {
		sum += v
	}
	if len(s) != len(hostLayers) || math.Abs(sum-1) > 1e-12 {
		t.Fatalf("shares %v sum to %v", s, sum)
	}
	if math.Abs(s["gc"]-20e6/1.26e9) > 1e-12 {
		t.Errorf("gc share %v", s["gc"])
	}
}

func TestChecksFire(t *testing.T) {
	astri, err := specByName("tinykv-write")
	if err != nil {
		t.Fatal(err)
	}
	dramOnly, err := specByName("tatp-dram")
	if err != nil {
		t.Fatal(err)
	}
	good := func() astriflash.Metrics {
		return astriflash.Metrics{
			Jobs: 10, Offered: 12, Admitted: 9, AdmissionSheds: 2, QueueFullDrops: 1,
			FlashPrograms: 7,
			Counters:      map[string]uint64{"flash.writes": 4, "flash.gc_page_moves": 2, "flash.remap_moves": 1},
		}
	}
	if err := check(astri, good()); err != nil {
		t.Fatalf("valid metrics rejected: %v", err)
	}
	if err := check(dramOnly, good()); err != nil {
		t.Fatalf("valid DRAM-only metrics rejected: %v", err)
	}
	for _, tc := range []struct {
		name   string
		s      spec
		doctor func(*astriflash.Metrics)
	}{
		{"no jobs", astri, func(m *astriflash.Metrics) { m.Jobs = 0 }},
		{"lost arrival", astri, func(m *astriflash.Metrics) { m.Offered++ }},
		{"uncounted program", astri, func(m *astriflash.Metrics) { m.FlashPrograms++ }},
		{"DRAM-only flash read", dramOnly, func(m *astriflash.Metrics) { m.FlashReads = 1 }},
		{"DRAM-only cache miss", dramOnly, func(m *astriflash.Metrics) { m.Counters["dramcache.misses"] = 1 }},
	} {
		m := good()
		tc.doctor(&m)
		if check(tc.s, m) == nil {
			t.Errorf("%s: check passed doctored metrics", tc.name)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the program's metric
// and workload lists in step.
func TestBenchmarkJSONMatches(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range specs() {
		want = append(want, s.name)
	}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, layerDefs())
}

func TestCompare(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end": [
		{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
		{"name": "sim_ns_per_s", "unit": "sim-ns/s", "better": "higher", "bound": 0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, setup, rate stat) string {
		r := &report{Schema: reportSchema, Workloads: map[string]*workloadReport{
			"w": {EndToEnd: map[string]stat{"setup_s": setup, "sim_ns_per_s": rate}},
		}}
		p := filepath.Join(dir, name)
		if err := r.write(p); err != nil {
			t.Fatal(err)
		}
		return p
	}
	tight := func(v float64) stat { return stat{Value: v, Q1: v, Q3: v, Samples: []float64{v, v, v}} }
	noisy := stat{Value: 100, Q1: 50, Q3: 150, Samples: []float64{50, 100, 150}}
	old := write("old.json", tight(1.0), noisy)

	var out bytes.Buffer
	worse, err := compare(bench, []string{old}, []string{write("same.json", tight(1.05), noisy)}, &out)
	if err != nil || worse {
		t.Fatalf("5%% slower set-up within a 10%% bound: worse=%v err=%v\n%s", worse, err, &out)
	}
	if !strings.Contains(out.String(), "unresolved") {
		t.Errorf("a spread wider than the bound must be unresolved:\n%s", &out)
	}
	out.Reset()
	worse, err = compare(bench, []string{old}, []string{write("slow.json", tight(1.2), noisy)}, &out)
	if err != nil || !worse {
		t.Fatalf("20%% slower set-up past a 10%% bound: worse=%v err=%v\n%s", worse, err, &out)
	}
	out.Reset()
	if _, err := compare(bench, []string{old}, []string{write("fast.json", tight(0.5), noisy)}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "improved") {
		t.Errorf("halved set-up not reported improved:\n%s", &out)
	}
}

// TestSmoke runs every workload for two rounds on a 1 ms window, the
// large data set shrunk to 64 MB, then the profiled pass with a 0.2 ms
// traced window.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the simulator")
	}
	var sel []spec
	for _, s := range specs() {
		s.warmupNs, s.measureNs, s.traceNs = 2_000_000, 1_000_000, 200_000
		if s.datasetB > 64<<20 {
			s.datasetB = 64 << 20
		}
		sel = append(sel, s)
	}
	rep := newReport(42367, 2, 0)
	run(sel, rep, 42367, 2, 0, true, t.TempDir())
	sum := rep.summary(true, true)
	if !sum.Correct || sum.Attempted != len(sel)*(2+profiledRuns) {
		for _, wr := range rep.Workloads {
			t.Log(wr.Errors)
		}
		t.Fatalf("correct %v, %d/%d operations failed", sum.Correct, sum.Failed, sum.Attempted)
	}
	for _, s := range sel {
		wr := rep.Workloads[s.name]
		for _, d := range endToEnd {
			if v := wr.EndToEnd[d.Name].Value; !(v > 0) {
				t.Errorf("%s %s = %v, want > 0", s.name, d.Name, v)
			}
		}
		var total float64
		for _, d := range layerDefs() {
			v, ok := wr.PerLayer[d.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s %s = %v (present %v)", s.name, d.Name, v, ok)
			}
			if strings.HasSuffix(d.Name, ".host_share") {
				total += v
			}
		}
		if math.Abs(total-1) > 0.01 {
			t.Errorf("%s host shares sum to %v", s.name, total)
		}
	}
	if r := rep.Workloads["tatp-dram"].PerLayer; r["flash.reads"] != 0 || r["dramcache.hit_ratio"] != 1 {
		t.Errorf("tatp-dram touched flash: %v reads, hit ratio %v", r["flash.reads"], r["dramcache.hit_ratio"])
	}
}
