package astriflash

import (
	"fmt"
	"math"
	"strings"
	"time"

	"astriflash/internal/stats"
	"astriflash/internal/system"
)

// ExpConfig sizes the reproduction experiments. The defaults run each
// experiment in seconds on a laptop; raise the knobs toward the paper's
// scale for tighter statistics.
type ExpConfig struct {
	Cores        int
	DatasetBytes uint64
	Inflight     int   // closed-loop outstanding requests per core
	WarmupNs     int64 // cache-warming window, excluded from statistics
	MeasureNs    int64 // measurement window
	Seed         uint64
	// Workers bounds sweep parallelism: independent simulation points fan
	// out across this many goroutines. 0 means auto (ASTRIFLASH_WORKERS,
	// then NumCPU). Results are bit-identical for any worker count: each
	// point's seed derives from Seed and the point's seed index alone, and
	// every point runs its own single-threaded engine.
	Workers int
	// PointTimeout aborts any single sweep point that exceeds this much
	// wall-clock time (panic with engine diagnostics, surfaced by the
	// runner as that point's error). 0 means no limit.
	PointTimeout time.Duration
}

// DefaultExpConfig returns the quick-run sizing.
func DefaultExpConfig() ExpConfig {
	return ExpConfig{
		Cores:        8,
		DatasetBytes: 32 << 20,
		// The paper models "a large job queue": keep more requests
		// outstanding than the pending queue can hold (PendingLimit is
		// 32) so new work is always available at saturation, while
		// staying below the point where in-flight pinned pages crowd the
		// scaled DRAM cache.
		Inflight:  48,
		WarmupNs:  10_000_000,
		MeasureNs: 20_000_000,
		Seed:      0xa57f,
	}
}

func (e ExpConfig) options(mode Mode, wl string) Options {
	o := DefaultOptions(mode, wl)
	o.Cores = e.Cores
	o.DatasetBytes = e.DatasetBytes
	o.Seed = e.Seed
	return o
}

// renderTable formats experiment rows uniformly.
func renderTable(title string, header []string, rows [][]string) string {
	t := stats.Table{Header: header, Rows: rows}
	return title + "\n" + t.String()
}

// ---------------------------------------------------------------------------
// Figure 9: throughput normalized to DRAM-only.

// Fig9Row is one workload's normalized throughput across configurations.
type Fig9Row struct {
	Workload string
	// Normalized maps configuration name to throughput relative to the
	// DRAM-only system (paper: AstriFlash ~0.95, OS-Swap ~0.58,
	// Flash-Sync ~0.27).
	Normalized map[string]float64
}

// Fig9Modes are the configurations Figure 9 plots.
var Fig9Modes = []Mode{DRAMOnly, AstriFlash, AstriFlashIdeal, OSSwap, FlashSync}

// Fig9Throughput reproduces Figure 9 over the given workloads (nil means
// all seven). The {workload × mode} grid fans out across the worker pool;
// normalization against DRAM-only happens after all points complete.
func Fig9Throughput(cfg ExpConfig, workloads []string) ([]Fig9Row, error) {
	if workloads == nil {
		workloads = Workloads()
	}
	nm := len(Fig9Modes)
	var pts []point
	for _, wl := range workloads {
		for _, mode := range Fig9Modes {
			pts = append(pts, point{mode.String() + "/" + wl, len(pts), cfg.options(mode, wl)})
		}
	}
	res, err := runPoints(cfg, "fig9", pts, cfg.saturated)
	if err != nil {
		return nil, err
	}
	var rows []Fig9Row
	for wi, wl := range workloads {
		row := Fig9Row{Workload: wl, Normalized: map[string]float64{}}
		base := res[wi*nm].ThroughputJPS // Fig9Modes[0] is DRAM-only
		if base == 0 {
			return nil, fmt.Errorf("fig9 %s: DRAM-only made no progress", wl)
		}
		for mi, mode := range Fig9Modes {
			row.Normalized[mode.String()] = res[wi*nm+mi].ThroughputJPS / base
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// RenderFig9 formats Figure 9 rows, appending the geometric-mean row the
// paper reports ("average of 95%").
func RenderFig9(rows []Fig9Row) string {
	header := []string{"workload"}
	for _, m := range Fig9Modes {
		header = append(header, m.String())
	}
	var out [][]string
	geo := make(map[string]float64)
	for _, m := range Fig9Modes {
		geo[m.String()] = 1
	}
	for _, r := range rows {
		cells := []string{r.Workload}
		for _, m := range Fig9Modes {
			v := r.Normalized[m.String()]
			geo[m.String()] *= v
			cells = append(cells, fmt.Sprintf("%.3f", v))
		}
		out = append(out, cells)
	}
	mean := []string{"geomean"}
	for _, m := range Fig9Modes {
		mean = append(mean, fmt.Sprintf("%.3f", math.Pow(geo[m.String()], 1/float64(len(rows)))))
	}
	out = append(out, mean)
	return renderTable("Figure 9: throughput normalized to DRAM-only", header, out)
}

// ---------------------------------------------------------------------------
// Figure 1: miss ratio and flash bandwidth vs DRAM-cache capacity.

// Fig1Point is one capacity point of the Figure 1 sweep.
type Fig1Point struct {
	CacheFraction float64
	MissRatio     float64
	// FlashGBpsPerCore applies the paper's Equation (1) with the
	// measured per-core DRAM bandwidth.
	FlashGBpsPerCore float64
}

// Fig1MissRatioSweep reproduces Figure 1: DRAM-cache miss ratio and the
// flash bandwidth needed to refill it, across cache capacities. The knee
// settles near the 3% hot fraction, the paper's provisioning rule.
func Fig1MissRatioSweep(cfg ExpConfig, workloadName string, fractions []float64) ([]Fig1Point, error) {
	if fractions == nil {
		fractions = []float64{0.005, 0.01, 0.02, 0.03, 0.05, 0.08, 0.12}
	}
	pts := make([]point, len(fractions))
	for i, f := range fractions {
		o := cfg.options(AstriFlash, workloadName)
		o.CacheFraction = f
		pts[i] = point{fmt.Sprintf("cache=%g", f), i, o}
	}
	return runPoints(cfg, "fig1", pts, func(i int, m *Machine) (Fig1Point, error) {
		res := m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
		// Equation (1): BW_flash = BW_dram / blockSize * missRate * pageSize,
		// with the per-core DRAM bandwidth measured from the run: DRAM
		// accesses/s = flash reads / miss ratio over the window.
		window := float64(res.SimulatedNs) / 1e9
		var dramBWPerCore float64
		if res.DRAMCacheMissRatio > 0 {
			dramBWPerCore = float64(res.FlashReads) / res.DRAMCacheMissRatio * 64 / window / float64(cfg.Cores)
		}
		flashBW := dramBWPerCore / 64 * res.DRAMCacheMissRatio * 4096
		return Fig1Point{
			CacheFraction:    fractions[i],
			MissRatio:        res.DRAMCacheMissRatio,
			FlashGBpsPerCore: flashBW / 1e9,
		}, nil
	})
}

// RenderFig1 formats the sweep.
func RenderFig1(points []Fig1Point) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%.1f%%", p.CacheFraction*100),
			fmt.Sprintf("%.2f%%", p.MissRatio*100),
			fmt.Sprintf("%.3f", p.FlashGBpsPerCore),
		})
	}
	return renderTable("Figure 1: miss ratio and flash bandwidth vs DRAM capacity",
		[]string{"DRAM capacity", "miss ratio", "flash GB/s per core"}, rows)
}

// ---------------------------------------------------------------------------
// Figure 2: paging throughput vs core count.

// Fig2Point compares per-core efficiency at one core count.
type Fig2Point struct {
	Cores int
	// PerCoreThroughput maps configuration to jobs/s/core, showing
	// OS paging failing to scale while AstriFlash stays flat.
	PerCoreThroughput map[string]float64
}

// Fig2PagingScaling reproduces Figure 2's message: asynchronous paging
// (OS-Swap) loses per-core throughput as cores are added (shootdowns and
// lock serialization), while AstriFlash scales.
func Fig2PagingScaling(cfg ExpConfig, workloadName string, coreCounts []int) ([]Fig2Point, error) {
	if coreCounts == nil {
		coreCounts = []int{2, 4, 8, 16}
	}
	modes := []Mode{AstriFlash, OSSwap}
	var pts []point
	for _, n := range coreCounts {
		for _, mode := range modes {
			o := cfg.options(mode, workloadName)
			o.Cores = n
			pts = append(pts, point{fmt.Sprintf("%s/cores=%d", mode, n), len(pts), o})
		}
	}
	res, err := runPoints(cfg, "fig2", pts, cfg.saturated)
	if err != nil {
		return nil, err
	}
	var out []Fig2Point
	for ci, n := range coreCounts {
		pt := Fig2Point{Cores: n, PerCoreThroughput: map[string]float64{}}
		for mi, mode := range modes {
			pt.PerCoreThroughput[mode.String()] = res[ci*len(modes)+mi].ThroughputJPS / float64(n)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RenderFig2 formats the scaling sweep.
func RenderFig2(points []Fig2Point) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", p.Cores),
			fmt.Sprintf("%.0f", p.PerCoreThroughput["AstriFlash"]),
			fmt.Sprintf("%.0f", p.PerCoreThroughput["OS-Swap"]),
		})
	}
	return renderTable("Figure 2: per-core throughput (jobs/s/core) vs core count",
		[]string{"cores", "AstriFlash", "OS-Swap"}, rows)
}

// ---------------------------------------------------------------------------
// Table II: 99th-percentile service latency normalized to Flash-Sync.

// Table2Row is one configuration's normalized tail service latency.
type Table2Row struct {
	Config     string
	P99Service int64
	// Normalized to Flash-Sync (paper: AstriFlash ~1.02, noPS ~7x,
	// noDP ~1.7x).
	Normalized float64
}

// Table2ServiceLatency reproduces Table II on the given workload (the
// paper uses the microbenchmarks and TATP).
func Table2ServiceLatency(cfg ExpConfig, workloadName string) ([]Table2Row, error) {
	modes := []Mode{FlashSync, AstriFlash, AstriFlashNoPS, AstriFlashNoDP}
	res, err := runPoints(cfg, "table2", cfg.modePoints(0, workloadName, modes...), cfg.saturated)
	if err != nil {
		return nil, err
	}
	base := res[0].P99ServiceNs // modes[0] is Flash-Sync
	if base == 0 {
		return nil, fmt.Errorf("table2: Flash-Sync recorded no latencies")
	}
	var rows []Table2Row
	for i, mode := range modes {
		rows = append(rows, Table2Row{
			Config:     mode.String(),
			P99Service: res[i].P99ServiceNs,
			Normalized: float64(res[i].P99ServiceNs) / float64(base),
		})
	}
	return rows, nil
}

// RenderTable2 formats Table II.
func RenderTable2(rows []Table2Row) string {
	var out [][]string
	for _, r := range rows {
		out = append(out, []string{
			r.Config,
			fmt.Sprintf("%d", r.P99Service/1000),
			fmt.Sprintf("%.2fx", r.Normalized),
		})
	}
	return renderTable("Table II: p99 service latency normalized to Flash-Sync",
		[]string{"config", "p99 service (us)", "normalized"}, out)
}

// ---------------------------------------------------------------------------
// Section VI-D: garbage-collection overheads.

// GCPoint is one device-capacity point.
type GCPoint struct {
	Label           string
	Planes          int
	BlockedFraction float64
	GCRuns          uint64
}

// GCOverheadSweep reproduces Section VI-D: the fraction of flash reads
// blocked behind garbage collection shrinks as the device grows (more
// planes spread the GC), and local GC eliminates it.
func GCOverheadSweep(cfg ExpConfig, workloadName string) ([]GCPoint, error) {
	type variant struct {
		label    string
		channels int
		localGC  bool
	}
	variants := []variant{
		{"small (256GB-class)", 2, false},
		{"large (1TB-class)", 8, false},
		{"large + local GC", 8, true},
	}
	pts := make([]point, len(variants))
	for i, v := range variants {
		o := cfg.options(AstriFlash, workloadName)
		o.WriteFraction = 0.5 // write-heavy to exercise GC
		o.LocalGC = v.localGC
		// Shrink the device by channel count while keeping the dataset
		// and the per-plane geometry, as between a 256 GB and a 1 TB
		// build of the same flash die: fewer planes concentrate GC. The
		// small device's physical capacity sits near the dataset size,
		// so the write stream churns its blocks into collection.
		o.FlashChannels = v.channels
		o.FlashPagesPerBlock = 16
		o.FlashBlocksPerPlane = 24
		pts[i] = point{v.label, i, o}
	}
	return runPoints(cfg, "gc", pts, func(i int, m *Machine) (GCPoint, error) {
		// GC needs sustained write churn; run 3x the normal window.
		res := m.RunSaturated(cfg.Inflight, cfg.WarmupNs, 3*cfg.MeasureNs)
		return GCPoint{
			Label:           variants[i].label,
			Planes:          m.sys.Flash().Planes(),
			BlockedFraction: res.GCBlockedFraction,
			GCRuns:          res.GCRuns,
		}, nil
	})
}

// RenderGC formats the sweep.
func RenderGC(points []GCPoint) string {
	var rows [][]string
	for _, p := range points {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%d", p.Planes),
			fmt.Sprintf("%.2f%%", p.BlockedFraction*100),
			fmt.Sprintf("%d", p.GCRuns),
		})
	}
	return renderTable("Section VI-D: GC-blocked read fraction vs device size",
		[]string{"device", "planes", "blocked reads", "GC runs"}, rows)
}

// ---------------------------------------------------------------------------
// Table I: simulation parameters.

// RenderTable1 prints the configured system parameters, the reproduction's
// equivalent of Table I.
func RenderTable1(cfg ExpConfig) string {
	o := cfg.options(AstriFlash, "tatp")
	sysCfg, _ := o.build()
	var b strings.Builder
	t := stats.Table{Header: []string{"parameter", "value"}}
	t.AddRow("cores", fmt.Sprintf("%d", sysCfg.Cores))
	t.AddRow("dataset", fmt.Sprintf("%d MB (scaled stand-in for 256 GB)", sysCfg.Workload.DatasetBytes>>20))
	t.AddRow("DRAM cache", fmt.Sprintf("%.0f%% of dataset, 4 KB pages, tags in DRAM", sysCfg.DRAMCacheFraction*100))
	t.AddRow("LLC per core", fmt.Sprintf("%d KB (scaled with dataset)", sysCfg.Hier.LLCSets*sysCfg.Hier.LLCWays*64/1024))
	t.AddRow("flash read", fmt.Sprintf("%d us cell + %d us transfer", sysCfg.Flash.ReadLatency/1000, sysCfg.Flash.ChannelTransfer/1000))
	t.AddRow("flash geometry", fmt.Sprintf("%d ch x %d die x %d plane", sysCfg.Flash.Channels, sysCfg.Flash.DiesPerChannel, sysCfg.Flash.PlanesPerDie))
	t.AddRow("thread switch", fmt.Sprintf("%d ns user-level", sysCfg.Sched.SwitchCost))
	t.AddRow("pending queue", fmt.Sprintf("%d threads/core", sysCfg.Sched.PendingLimit))
	t.AddRow("OS page fault", fmt.Sprintf("%d us entry + %d us context switch", sysCfg.OSCosts.PageFaultEntry/1000, sysCfg.OSCosts.ContextSwitch/1000))
	t.AddRow("TLB shootdown", fmt.Sprintf("%d us at %d cores", sysCfg.Shootdown.Latency(sysCfg.Cores)/1000, sysCfg.Cores))
	t.AddRow("ROB / SB", fmt.Sprintf("%d / %d entries", system.ROBEntries, system.SBEntries))
	b.WriteString("Table I: system parameters\n")
	b.WriteString(t.String())
	return b.String()
}
