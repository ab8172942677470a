package workload

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"testing"

	"astriflash/internal/mem"
)

// smallConfig keeps dataset builds fast in unit tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.DatasetBytes = 4 << 20
	return cfg
}

func TestRegistryHasAllPaperWorkloads(t *testing.T) {
	names := Names()
	if len(names) != 7 {
		t.Fatalf("got %d workloads, want the paper's 7", len(names))
	}
	for _, n := range names {
		w, err := New(n, smallConfig())
		if err != nil {
			t.Fatalf("%s: %v", n, err)
		}
		if w.Name() != n {
			t.Fatalf("%s reports name %q", n, w.Name())
		}
	}
}

func TestNewUnknownWorkload(t *testing.T) {
	if _, err := New("nope", smallConfig()); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// fitsDataset reports whether name builds at cfg without outgrowing its
// arena and, for TPC-C, with its item floor no longer binding.
func fitsDataset(name string, cfg Config) (fits bool) {
	defer func() {
		if recover() != nil {
			fits = false
		}
	}()
	if tp, ok := builders[name](cfg).(*TPCC); ok {
		return tp.Items() > tpccMinItems
	}
	return true
}

func TestMinDatasetBytes(t *testing.T) {
	for _, name := range append(Names(), "tinykv") {
		need := MinDatasetBytes(name)
		cfg := DefaultConfig()
		cfg.DatasetBytes = need
		if !fitsDataset(name, cfg) {
			t.Fatalf("%s does not fit its minimum %d", name, need)
		}
		if need == mem.PageSize {
			continue // Validate's one-page floor
		}
		cfg.DatasetBytes = need - 1
		_, err := New(name, cfg)
		if err == nil || !strings.Contains(err.Error(), name) ||
			!strings.Contains(err.Error(), strconv.FormatUint(need, 10)) {
			t.Fatalf("%s below its minimum: err %v, want one naming it and %d", name, err, need)
		}
		// The minimum is tight: one KiB less does not fit.
		cfg.DatasetBytes = need - 1<<10
		if fitsDataset(name, cfg) {
			t.Fatalf("%s fits %d bytes; its minimum %d is stale", name, cfg.DatasetBytes, need)
		}
	}
}

func TestEveryWorkloadFitsAboveItsMinimum(t *testing.T) {
	// Steps one page at a time past the minimums and across the hash
	// table's power-of-two rounding: just above 64 and 128 KiB the
	// table is nearly twice the dataset and must still fit its arena.
	for _, name := range append(Names(), "tinykv") {
		cfg := DefaultConfig()
		need := MinDatasetBytes(name)
		for b := need; b <= need+256<<10; b += mem.PageSize {
			cfg.DatasetBytes = b
			if !fitsDataset(name, cfg) {
				t.Fatalf("%s does not fit a %d-byte dataset", name, b)
			}
		}
	}
}

// TestNewJobStepsAllocFree builds every registered workload at 8 MiB and
// requires a job generated into the previous job's trace buffer to make
// no heap allocation once the workload is warm.
func TestNewJobStepsAllocFree(t *testing.T) {
	names := make([]string, 0, len(builders))
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		cfg := DefaultConfig()
		cfg.DatasetBytes = 8 << 20
		w, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf := w.NewJobSteps(make([]Step, 0, 4096))
		if n := testing.AllocsPerRun(100, func() { buf = w.NewJobSteps(buf) }); n != 0 {
			t.Errorf("%s: %.1f allocations per job, want 0", name, n)
		}
	}
}

// TestTATPMaxJobStepsBoundsTraces checks TATP's stated longest trace:
// over 2000 jobs, no trace outgrows it, at the default length and at one
// operation per job, and at one operation some trace reaches it, so the
// bound is also tight.
func TestTATPMaxJobStepsBoundsTraces(t *testing.T) {
	for _, ops := range []int{1, DefaultConfig().OpsPerJob} {
		cfg := smallConfig()
		cfg.OpsPerJob = ops
		w := NewTATP(cfg)
		var buf []Step
		longest := 0
		for range 2000 {
			buf = w.NewJobSteps(buf)
			longest = max(longest, len(buf))
		}
		if bound := w.MaxJobSteps(); longest > bound || ops == 1 && longest != bound {
			t.Errorf("%d ops per job: longest trace %d steps, stated bound %d", ops, longest, bound)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	bads := []func(*Config){
		func(c *Config) { c.DatasetBytes = 0 },
		func(c *Config) { c.ZipfTheta = 0 },
		func(c *Config) { c.ZipfTheta = 1.2 },
		func(c *Config) { c.ComputePerAccessNs = 0 },
		func(c *Config) { c.OpsPerJob = 0 },
		func(c *Config) { c.WriteFraction = -0.1 },
		func(c *Config) { c.WriteFraction = 1.1 },
		func(c *Config) { c.DatasetBytes = MaxDatasetBytes + 1 },
	}
	for i, mutate := range bads {
		cfg := smallConfig()
		mutate(&cfg)
		if cfg.Validate() == nil {
			t.Fatalf("bad config %d accepted", i)
		}
	}
	if err := smallConfig().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestEveryWorkloadEmitsValidJobs(t *testing.T) {
	for _, n := range Names() {
		n := n
		t.Run(n, func(t *testing.T) {
			w, err := New(n, smallConfig())
			if err != nil {
				t.Fatal(err)
			}
			limit := w.DatasetPages()
			if limit == 0 {
				t.Fatal("zero dataset")
			}
			for j := 0; j < 50; j++ {
				steps := w.NewJobSteps(nil)
				if len(steps) == 0 {
					t.Fatal("empty job")
				}
				var compute int64
				for _, s := range steps {
					compute += s.ComputeNs
					if s.ComputeNs <= 0 {
						t.Fatalf("non-positive compute %d", s.ComputeNs)
					}
					if uint64(s.Access.Page()) >= limit {
						t.Fatalf("access page %d beyond dataset %d pages",
							s.Access.Page(), limit)
					}
				}
				if compute <= 0 {
					t.Fatal("job has no compute")
				}
			}
		})
	}
}

func TestWorkloadsAreSkewed(t *testing.T) {
	// Every workload must concentrate accesses: the hottest 10% of pages
	// should take well over 10% of accesses (Zipfian skew drives the
	// whole design).
	for _, n := range Names() {
		w, err := New(n, smallConfig())
		if err != nil {
			t.Fatal(err)
		}
		counts := map[mem.PageNum]int{}
		total := 0
		for j := 0; j < 400; j++ {
			for _, s := range w.NewJobSteps(nil) {
				counts[s.Access.Page()]++
				total++
			}
		}
		// Top-10%-of-touched-pages share.
		freqs := make([]int, 0, len(counts))
		for _, c := range counts {
			freqs = append(freqs, c)
		}
		// selection: sum the top decile.
		top := len(freqs) / 10
		if top == 0 {
			top = 1
		}
		sortInts(freqs)
		hot := 0
		for _, c := range freqs[len(freqs)-top:] {
			hot += c
		}
		share := float64(hot) / float64(total)
		if share < 0.3 {
			t.Fatalf("%s: hottest decile of touched pages got %.2f of accesses; no skew", n, share)
		}
	}
}

func sortInts(xs []int) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j-1] > xs[j]; j-- {
			xs[j-1], xs[j] = xs[j], xs[j-1]
		}
	}
}

func TestJobsAreDeterministicPerSeed(t *testing.T) {
	for _, n := range Names() {
		a, _ := New(n, smallConfig())
		b, _ := New(n, smallConfig())
		for j := 0; j < 10; j++ {
			ja, jb := a.NewJobSteps(nil), b.NewJobSteps(nil)
			if len(ja) != len(jb) {
				t.Fatalf("%s: job %d lengths differ", n, j)
			}
			for i := range ja {
				if ja[i] != jb[i] {
					t.Fatalf("%s: job %d step %d differs", n, j, i)
				}
			}
		}
	}
}

func TestTracerComputeAttachment(t *testing.T) {
	tr := NewTracer(10)
	tr.Compute(100) // compute before any access becomes its own step
	tr.Touch(0x40, false)
	tr.Compute(50)
	steps := tr.Take()
	if len(steps) != 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	if steps[0].ComputeNs != 100 {
		t.Fatalf("leading compute = %d", steps[0].ComputeNs)
	}
	if steps[1].ComputeNs != 60 {
		t.Fatalf("attached compute = %d, want 10+50", steps[1].ComputeNs)
	}
	if len(tr.Take()) != 0 {
		t.Fatal("Take did not reset")
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	tr.Touch(0x40, true)
	tr.Compute(10)
	tree := NewBPTree(testArena(), 8)
	for i := uint64(0); i < 100; i++ {
		tree.Insert(i, tr)
	}
	if !tree.Get(42, tr) {
		t.Fatal("Get(42) missed through a nil tracer")
	}
}

func TestTracerInvalidCompute(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero compute-per-access did not panic")
		}
	}()
	NewTracer(0)
}

func TestTPCCIsMostComputeIntensive(t *testing.T) {
	// The paper singles TPCC out as the most computationally intensive
	// workload (Section VI-A); its per-access compute must exceed the
	// others'.
	tp, _ := New("tpcc", smallConfig())
	ar, _ := New("arrayswap", smallConfig())
	meanCompute := func(w Workload) float64 {
		var total, n int64
		for j := 0; j < 100; j++ {
			steps := w.NewJobSteps(nil)
			for _, s := range steps {
				total += s.ComputeNs
			}
			n += int64(len(steps))
		}
		return float64(total) / float64(n)
	}
	if meanCompute(tp) <= meanCompute(ar) {
		t.Fatal("tpcc not more compute-intensive than arrayswap")
	}
}

// TestBPTreeWorkloadHeapPerSimulatedByte guards the host heap the B+tree
// workloads hold after the build: at most 0.0145 host bytes per simulated
// byte, about 1.25 times the larger figure. With 24-byte, index-addressed
// nodes they hold about 0.0072 (tatp) and 0.0118 (tpcc); 80-byte nodes
// with frozen leaves strided held about 0.024 and 0.031, leaves packed
// into 16-bit offsets about 0.079 and 0.101, key-only leaves stored as
// eight-byte keys about 0.23 and 0.29, leaves that also stored a value
// per key about 0.44 and 0.55, and leaves whose arrays stayed sized for
// fanout+1 after a split about 0.95 and 1.19.
func TestBPTreeWorkloadHeapPerSimulatedByte(t *testing.T) {
	for _, name := range []string{"tatp", "tpcc"} {
		cfg := DefaultConfig()
		cfg.DatasetBytes = 32 << 20
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w, err := New(name, cfg)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(w)
		perByte := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(cfg.DatasetBytes)
		t.Logf("%s: %.4f host heap bytes per simulated byte", name, perByte)
		if perByte > 0.0145 {
			t.Errorf("%s holds %.4f host heap bytes per simulated byte, want <= 0.0145", name, perByte)
		}
	}
}

func TestDatasetScalesWithConfig(t *testing.T) {
	small := smallConfig()
	big := smallConfig()
	big.DatasetBytes = 16 << 20
	for _, n := range []string{"arrayswap", "silo", "tatp"} {
		ws, _ := New(n, small)
		wb, _ := New(n, big)
		if wb.DatasetPages() <= ws.DatasetPages() {
			t.Fatalf("%s: dataset did not scale (%d vs %d pages)",
				n, ws.DatasetPages(), wb.DatasetPages())
		}
	}
}
