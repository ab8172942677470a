package astriflash

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"astriflash/internal/workload"
)

// quickExp keeps public-API tests fast.
func quickExp() ExpConfig {
	cfg := DefaultExpConfig()
	cfg.Cores = 4
	cfg.DatasetBytes = 16 << 20
	cfg.Inflight = 32
	cfg.WarmupNs = 4_000_000
	cfg.MeasureNs = 8_000_000
	return cfg
}

func TestModesAndWorkloadsEnumerate(t *testing.T) {
	if len(Modes()) != 7 {
		t.Fatalf("modes = %d, want 7", len(Modes()))
	}
	if len(Workloads()) != 7 {
		t.Fatalf("workloads = %d, want 7", len(Workloads()))
	}
	for _, m := range Modes() {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

func TestRunConvenience(t *testing.T) {
	o := DefaultOptions(AstriFlash, "tatp")
	o.Cores = 4
	o.DatasetBytes = 16 << 20
	res, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs == 0 || res.ThroughputJPS == 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
	if res.Mode != "AstriFlash" || res.Workload != "tatp" {
		t.Fatalf("labels wrong: %s/%s", res.Mode, res.Workload)
	}
}

func TestRunRejectsBadOptions(t *testing.T) {
	if _, err := Run(Options{}); err == nil {
		t.Fatal("zero options accepted")
	}
	o := DefaultOptions(AstriFlash, "not-a-workload")
	if _, err := Run(o); err == nil {
		t.Fatal("unknown workload accepted")
	}
	if _, err := NewMachine(DefaultOptions(Mode(99), "tatp")); err == nil {
		t.Fatal("unknown mode accepted")
	}
}

// TestRunOverloadRejectsDropExpiredWithoutDeadline: a CLI-reachable
// misconfiguration surfaces as an error, not a panic mid-run.
func TestRunOverloadRejectsDropExpiredWithoutDeadline(t *testing.T) {
	m := smallMachine(t)
	if _, err := m.RunOverload(OverloadRun{MeanGapNs: 1000, DropExpired: true}); err == nil {
		t.Fatal("DropExpired without a deadline accepted")
	}
}

// TestRunOverloadRejectsBadShapeParameters: every arrival-shape parameter
// the shape's constructor would reject is an error before the run starts.
func TestRunOverloadRejectsBadShapeParameters(t *testing.T) {
	m := smallMachine(t)
	mmpp := OverloadRun{Shape: "mmpp", Burstiness: 0.5, DwellNs: 1e5}
	diurnal := OverloadRun{Shape: "diurnal", Amplitude: 0.5, PeriodNs: 1e6}
	crowd := OverloadRun{Shape: "flashcrowd", Surge: 3, SurgeDurNs: 1e5}
	for _, c := range []struct {
		name string
		run  OverloadRun
		set  func(r *OverloadRun)
		want string
	}{
		{"Burstiness 1", mmpp, func(r *OverloadRun) { r.Burstiness = 1 }, "burstiness"},
		{"DwellNs 0", mmpp, func(r *OverloadRun) { r.DwellNs = 0 }, "dwell"},
		{"Amplitude 1", diurnal, func(r *OverloadRun) { r.Amplitude = 1 }, "amplitude"},
		{"PeriodNs 0", diurnal, func(r *OverloadRun) { r.PeriodNs = 0 }, "period"},
		{"Surge 0", crowd, func(r *OverloadRun) { r.Surge = 0 }, "surge"},
		{"SurgeDurNs 0", crowd, func(r *OverloadRun) { r.SurgeDurNs = 0 }, "window"},
	} {
		r := c.run
		r.MeanGapNs, r.WarmupNs, r.MeasureNs = 1000, 100_000, 100_000
		c.set(&r)
		_, err := m.RunOverload(r)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s %s: error %v, want one naming %q", r.Shape, c.name, err, c.want)
		}
	}
}

// smallMachine builds the 2-core tatp machine the run-contract tests use.
func smallMachine(t *testing.T) *Machine {
	t.Helper()
	o := DefaultOptions(AstriFlash, "tatp")
	o.Cores = 2
	o.DatasetBytes = 8 << 20
	m, err := NewMachine(o)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestSecondRunRejected: a machine runs once. The window bounds are
// absolute simulated times and the job count and latency histograms are
// cumulative, so a second run would report the first one's results. It
// is an error from RunOverload and a panic naming the misuse from
// RunSaturated and RunPoisson, whichever driver ran first.
func TestSecondRunRejected(t *testing.T) {
	open := OverloadRun{MeanGapNs: 5_000, WarmupNs: 500_000, MeasureNs: 1_000_000}
	closed := func(m *Machine) error { m.RunSaturated(8, 500_000, 1_000_000); return nil }
	overload := func(m *Machine) error { _, err := m.RunOverload(open); return err }
	poisson := func(m *Machine) error { m.RunPoisson(open.MeanGapNs, open.WarmupNs, open.MeasureNs); return nil }
	for _, c := range []struct {
		name          string
		first, second func(m *Machine) error
	}{
		{"RunOverload after RunSaturated", closed, overload},
		{"RunSaturated after RunOverload", overload, closed},
		{"RunPoisson after RunSaturated", closed, poisson},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := smallMachine(t)
			if err := c.first(m); err != nil {
				t.Fatal(err)
			}
			err := func() (err error) {
				defer func() {
					if r := recover(); r != nil {
						err = fmt.Errorf("panic: %v", r)
					}
				}()
				return c.second(m)
			}()
			if err == nil || !strings.Contains(err.Error(), "machine runs once") {
				t.Fatalf("second run reported %v, want a rejection saying a machine runs once", err)
			}
		})
	}
}

// TestRejectedRunLeavesMachineUntouched: a run that does not validate
// draws no randomness and offers no load, so a valid run after it
// matches the same run on a fresh machine exactly.
func TestRejectedRunLeavesMachineUntouched(t *testing.T) {
	src := OverloadRun{Shape: "mmpp", MeanGapNs: 5_000, Burstiness: 0.5, DwellNs: 1e5,
		Controller: "codel", WarmupNs: 500_000, MeasureNs: 1_000_000}
	m := smallMachine(t)
	for _, bad := range []func(r *OverloadRun){
		func(r *OverloadRun) { r.Shape = "square" },
		func(r *OverloadRun) { r.Burstiness = 1 },
		func(r *OverloadRun) { r.Controller = "red" },
	} {
		r := src
		bad(&r)
		if _, err := m.RunOverload(r); err == nil {
			t.Fatalf("%+v accepted", r)
		}
	}
	got, err := m.RunOverload(src)
	if err != nil {
		t.Fatal(err)
	}
	want, err := smallMachine(t).RunOverload(src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after rejected runs:\n%+v\nfresh machine:\n%+v", got, want)
	}
}

// TestNewMachineRejectsBadFlashGeometry: a flash geometry the device
// cannot be built with is an error from NewMachine, not a panic while the
// device is built.
func TestNewMachineRejectsBadFlashGeometry(t *testing.T) {
	for _, c := range []struct {
		name string
		set  func(o *Options)
		want string
	}{
		{"one block per plane", func(o *Options) { o.FlashBlocksPerPlane = 1 }, "blocks per plane"},
		// Too small for the dataset, so sizing would double the blocks:
		// the configured geometry is rejected before that.
		{"one block per plane, grown to fit", func(o *Options) {
			o.FlashChannels, o.FlashBlocksPerPlane = 1, 1
		}, "blocks per plane"},
		{"beyond 32-bit owners", func(o *Options) {
			o.FlashChannels, o.FlashBlocksPerPlane, o.FlashPagesPerBlock = 1<<12, 1<<10, 1<<8
		}, "32-bit"},
		// Three channels per core: 196,608 channels of 16 planes.
		{"channels scaled past 32-bit owners", func(o *Options) { o.Cores = 1 << 16 }, "32-bit"},
	} {
		t.Run(c.name, func(t *testing.T) {
			o := DefaultOptions(AstriFlash, "tatp")
			o.Cores = 2
			o.DatasetBytes = 8 << 20
			c.set(&o)
			if _, err := NewMachine(o); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("err = %v, want one mentioning %q", err, c.want)
			}
		})
	}
}

// TestNewMachineRejectsTooSmallDataset: a dataset below a workload's
// fixed table floor is an error naming the workload and its minimum, not
// an arena-exhaustion panic during the build; at the minimum, the machine
// builds and runs.
func TestNewMachineRejectsTooSmallDataset(t *testing.T) {
	for _, name := range []string{"tatp", "tpcc", "masstree"} {
		t.Run(name, func(t *testing.T) {
			o := DefaultOptions(AstriFlash, name)
			o.DatasetBytes = 64 << 10
			_, err := NewMachine(o)
			need := workload.MinDatasetBytes(name)
			if err == nil || !strings.Contains(err.Error(), name) ||
				!strings.Contains(err.Error(), strconv.FormatUint(need, 10)) {
				t.Fatalf("err = %v, want one naming %s and its %d-byte minimum", err, name, need)
			}
			o.Cores = 4
			o.DatasetBytes = need
			m, err := NewMachine(o)
			if err != nil {
				t.Fatalf("at its minimum: %v", err)
			}
			if res := m.RunSaturated(8, 1_000_000, 2_000_000); res.Jobs == 0 {
				t.Fatal("no jobs completed at the minimum dataset")
			}
		})
	}
}

func TestDeterministicPublicRuns(t *testing.T) {
	o := DefaultOptions(AstriFlash, "silo")
	o.Cores = 2
	o.DatasetBytes = 8 << 20
	a, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if a.Jobs != b.Jobs || a.P99ServiceNs != b.P99ServiceNs {
		t.Fatal("identical options diverged")
	}
	// A different seed must change something observable.
	o.Seed = 12345
	c, err := Run(o)
	if err != nil {
		t.Fatal(err)
	}
	if c.Jobs == a.Jobs && c.P99ServiceNs == a.P99ServiceNs && c.FlashReads == a.FlashReads {
		t.Fatal("seed had no effect")
	}
}

func TestFig9SmallMatrix(t *testing.T) {
	rows, err := Fig9Throughput(quickExp(), []string{"tatp"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("rows = %d", len(rows))
	}
	n := rows[0].Normalized
	if n["DRAM-only"] != 1 {
		t.Fatalf("DRAM-only normalized = %v", n["DRAM-only"])
	}
	if n["AstriFlash"] < 0.8 {
		t.Fatalf("AstriFlash = %.2f, want >= 0.8", n["AstriFlash"])
	}
	if n["Flash-Sync"] > n["AstriFlash"] {
		t.Fatal("Flash-Sync beat AstriFlash")
	}
	out := RenderFig9(rows)
	if !strings.Contains(out, "geomean") || !strings.Contains(out, "tatp") {
		t.Fatalf("render missing content:\n%s", out)
	}
}

func TestFig1SweepShape(t *testing.T) {
	pts, err := Fig1MissRatioSweep(quickExp(), "arrayswap", []float64{0.01, 0.03, 0.08})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	// Miss ratio must fall steeply up to the hot fraction and flatten
	// past it (small sampling noise allowed on the flat part).
	if pts[0].MissRatio <= pts[1].MissRatio {
		t.Fatalf("miss ratio not decreasing below the knee: %+v", pts)
	}
	if pts[2].MissRatio > pts[1].MissRatio*1.2 {
		t.Fatalf("miss ratio rose past the knee: %+v", pts)
	}
	knee := pts[1].MissRatio - pts[2].MissRatio
	below := pts[0].MissRatio - pts[1].MissRatio
	if knee > below {
		t.Fatalf("no knee at the hot fraction: drops %v then %v", below, knee)
	}
	if RenderFig1(pts) == "" {
		t.Fatal("render failed")
	}
}

func TestFig2ScalingShape(t *testing.T) {
	pts, err := Fig2PagingScaling(quickExp(), "tatp", []int{2, 8})
	if err != nil {
		t.Fatal(err)
	}
	small, big := pts[0], pts[1]
	osDrop := small.PerCoreThroughput["OS-Swap"] / big.PerCoreThroughput["OS-Swap"]
	afDrop := small.PerCoreThroughput["AstriFlash"] / big.PerCoreThroughput["AstriFlash"]
	// OS paging must lose more per-core efficiency than AstriFlash as
	// cores grow (Figure 2's non-scaling).
	if osDrop <= afDrop {
		t.Fatalf("OS-Swap drop %.2fx vs AstriFlash %.2fx: paging scaled too well", osDrop, afDrop)
	}
	if RenderFig2(pts) == "" {
		t.Fatal("render failed")
	}
}

func TestFig3AnalyticalShape(t *testing.T) {
	curves := Fig3AnalyticalTail(DefaultFig3Params())
	if len(curves) != 4 {
		t.Fatalf("curves = %d", len(curves))
	}
	max := map[string]float64{}
	for _, c := range curves {
		max[c.System] = c.MaxLoad
		if len(c.Points) == 0 {
			t.Fatalf("%s: empty curve", c.System)
		}
	}
	if !(max["DRAM-only"] >= max["AstriFlash"] &&
		max["AstriFlash"] > max["OS-Swap"] &&
		max["OS-Swap"] > max["Flash-Sync"]) {
		t.Fatalf("saturation ordering wrong: %v", max)
	}
	if max["Flash-Sync"] > 0.2 {
		t.Fatalf("Flash-Sync max load %.2f, want >80%% degradation", max["Flash-Sync"])
	}
	if RenderFig3(curves) == "" {
		t.Fatal("render failed")
	}
}

func TestFig10CurveShape(t *testing.T) {
	cfg := quickExp()
	curves, err := Fig10TailLatency(cfg, []float64{0.3, 0.7})
	if err != nil {
		t.Fatal(err)
	}
	if len(curves) != 2 {
		t.Fatalf("curves = %d", len(curves))
	}
	var dram, astri Fig10Curve
	for _, c := range curves {
		switch c.System {
		case "DRAM-only":
			dram = c
		case "AstriFlash":
			astri = c
		}
	}
	// At low load AstriFlash's p99 must exceed DRAM-only's (flash
	// accesses are visible, Section VI-C).
	if astri.Points[0].P99 <= dram.Points[0].P99 {
		t.Fatalf("low load: AstriFlash %.1fx vs DRAM-only %.1fx", astri.Points[0].P99, dram.Points[0].P99)
	}
	// Latency grows with load within each curve.
	if astri.Points[1].P99 < astri.Points[0].P99 {
		t.Fatal("AstriFlash p99 not increasing with load")
	}
	if RenderFig10(curves) == "" {
		t.Fatal("render failed")
	}
}

func TestTable2Shape(t *testing.T) {
	rows, err := Table2ServiceLatency(quickExp(), "tatp")
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Table2Row{}
	for _, r := range rows {
		byName[r.Config] = r
	}
	if byName["Flash-Sync"].Normalized != 1 {
		t.Fatal("Flash-Sync must normalize to 1")
	}
	// AstriFlash close to Flash-Sync; noPS much worse; noDP worse than
	// AstriFlash (paper: 1.02x / ~7x / ~1.7x).
	af := byName["AstriFlash"].Normalized
	nops := byName["AstriFlash-noPS"].Normalized
	nodp := byName["AstriFlash-noDP"].Normalized
	if af > 3 {
		t.Fatalf("AstriFlash at %.2fx of Flash-Sync, want close to 1x", af)
	}
	if nops < 2*af {
		t.Fatalf("noPS at %.2fx vs AstriFlash %.2fx: starvation invisible", nops, af)
	}
	if nodp <= af {
		t.Fatalf("noDP at %.2fx not above AstriFlash %.2fx", nodp, af)
	}
	if RenderTable2(rows) == "" {
		t.Fatal("render failed")
	}
}

func TestGCOverheadShape(t *testing.T) {
	pts, err := GCOverheadSweep(quickExp(), "arrayswap")
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d", len(pts))
	}
	small, large, local := pts[0], pts[1], pts[2]
	if small.GCRuns == 0 {
		t.Skip("write pressure too low to trigger GC in quick config")
	}
	if large.BlockedFraction > small.BlockedFraction {
		t.Fatalf("larger device blocked more: %.3f vs %.3f", large.BlockedFraction, small.BlockedFraction)
	}
	if local.BlockedFraction != 0 {
		t.Fatalf("local GC still blocked %.3f of reads", local.BlockedFraction)
	}
	if RenderGC(pts) == "" {
		t.Fatal("render failed")
	}
}

func TestRenderTable1(t *testing.T) {
	out := RenderTable1(quickExp())
	for _, want := range []string{"cores", "DRAM cache", "thread switch", "TLB shootdown"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table I missing %q:\n%s", want, out)
		}
	}
}

func TestAnatomyShape(t *testing.T) {
	rows, err := Anatomy(quickExp(), "tatp", []Mode{DRAMOnly, AstriFlash, OSSwap})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	share := func(cfgName, bucket string) float64 {
		for _, r := range rows {
			if r.Config != cfgName {
				continue
			}
			for _, s := range r.Shares {
				if s.Bucket == bucket {
					return s.Fraction
				}
			}
		}
		t.Fatalf("missing %s/%s", cfgName, bucket)
		return 0
	}
	// DRAM-only spends nothing on flash or OS; OS-Swap pays os-paging;
	// AstriFlash converts the OS overhead into overlapped flash waits
	// plus a small scheduling share.
	if share("DRAM-only", "flash-wait") != 0 {
		t.Fatal("DRAM-only charged flash-wait")
	}
	if share("OS-Swap", "os-paging") == 0 {
		t.Fatal("OS-Swap has no os-paging share")
	}
	if share("AstriFlash", "os-paging") != 0 {
		t.Fatal("AstriFlash charged os-paging")
	}
	if share("AstriFlash", "flash-wait") == 0 {
		t.Fatal("AstriFlash has no flash-wait share")
	}
	if share("AstriFlash", "scheduling") <= 0 {
		t.Fatal("AstriFlash has no scheduling share")
	}
	if out := RenderAnatomy(rows); out == "" {
		t.Fatal("render failed")
	}
	if RenderAnatomy(nil) != "" {
		t.Fatal("empty anatomy should render empty")
	}
}

func TestCacheReplacementOption(t *testing.T) {
	for _, pol := range []string{"", "lru", "fifo", "random"} {
		o := DefaultOptions(AstriFlash, "tatp")
		o.Cores = 2
		o.DatasetBytes = 8 << 20
		o.CacheReplacement = pol
		if _, err := Run(o); err != nil {
			t.Fatalf("%q: %v", pol, err)
		}
	}
	o := DefaultOptions(AstriFlash, "tatp")
	o.CacheReplacement = "mru"
	if _, err := Run(o); err == nil {
		t.Fatal("unknown policy accepted")
	}
}
