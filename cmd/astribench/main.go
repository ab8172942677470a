// Command astribench regenerates the paper's figures and tables.
//
// Usage:
//
//	astribench                 # run every experiment
//	astribench -exp fig9       # one experiment
//	astribench -exp fig9,table2 -cores 16 -dataset 64
//
// Experiments: table1, fig1, fig2, fig3, fig9, fig10, table2, gc, anatomy,
// faults, overload, economics. Each prints the same rows/series the paper
// reports; EXPERIMENTS.md records paper-vs-measured values.
//
// Special modes replace -exp. -trace, -timeline and -openmetrics share one
// fig-10-style observed run (a traced DRAM-only baseline, then traced and
// sampled AstriFlash load points) and may be combined: -trace writes its
// span trace, -timeline its per-window timeline CSV with SLO burn-rate
// verdicts, -openmetrics the same windows for Prometheus-family tooling.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"astriflash"
	"astriflash/internal/runner"
)

func main() {
	var (
		expFlag   = flag.String("exp", "all", "comma-separated experiments (table1,fig1,fig2,fig3,fig9,fig10,table2,gc,anatomy,faults,overload,economics)")
		cores     = flag.Int("cores", 8, "simulated cores")
		datasetMB = flag.Uint64("dataset", 32, "dataset size in MB")
		measureMs = flag.Int64("measure", 20, "measurement window in simulated ms")
		seed      = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		workers   = flag.Int("workers", 0, "sweep worker goroutines (0 = auto: ASTRIFLASH_WORKERS, then NumCPU); results are identical for any value")
		plot      = flag.Bool("plot", false, "render fig3/fig10 as ASCII charts too")
		timeout   = flag.Duration("timeout", 0, "abort any single sweep point after this much wall-clock time, with now/pending/fired engine diagnostics (0 = no limit)")
		traceOut  = flag.String("trace", "", "instead of -exp, run the fig-10-style observed run (DRAM-only saturated baseline + AstriFlash under Poisson load) and write its span trace to this file; analyze with 'astritrace analyze -in FILE'")
		tlOut     = flag.String("timeline", "", "instead of -exp, run the fig-10-style observed run and write its timeline CSV to this file; view with 'astritrace timeline -in FILE'")
		omOut     = flag.String("openmetrics", "", "instead of -exp, run the fig-10-style observed run and export its timeline in OpenMetrics text format to this file")
		sloFlag   = flag.String("slo", "", "with -trace/-timeline/-openmetrics, extra comma-separated objectives (e.g. 'p99<150us') on top of the derived p99<1.5x-DRAM-only SLO")
		sloStrict = flag.Bool("slo-strict", false, "exit non-zero on SLO failure: with -trace/-timeline/-openmetrics, any FAIL verdict; with -exp overload, the adaptive controller letting p99 escape its threshold")
	)
	flag.Parse()

	cfg := astriflash.DefaultExpConfig()
	cfg.Cores = *cores
	cfg.DatasetBytes = *datasetMB << 20
	cfg.MeasureNs = *measureMs * 1_000_000
	cfg.Workers = *workers
	cfg.PointTimeout = *timeout
	if *seed != 0 {
		cfg.Seed = *seed
	}

	if *traceOut != "" || *tlOut != "" || *omOut != "" {
		if err := runTail(cfg, *traceOut, *tlOut, *omOut, *sloFlag, *sloStrict); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	selected := map[string]bool{}
	for _, e := range strings.Split(*expFlag, ",") {
		selected[strings.TrimSpace(strings.ToLower(e))] = true
	}
	all := selected["all"]
	want := func(name string) bool { return all || selected[name] }

	type experiment struct {
		name string
		run  func() (string, error)
	}
	experiments := []experiment{
		{"table1", func() (string, error) {
			return astriflash.RenderTable1(cfg), nil
		}},
		{"fig1", func() (string, error) {
			pts, err := astriflash.Fig1MissRatioSweep(cfg, "arrayswap", nil)
			if err != nil {
				return "", err
			}
			return astriflash.RenderFig1(pts), nil
		}},
		{"fig2", func() (string, error) {
			pts, err := astriflash.Fig2PagingScaling(cfg, "tatp", nil)
			if err != nil {
				return "", err
			}
			return astriflash.RenderFig2(pts), nil
		}},
		{"fig3", func() (string, error) {
			curves := astriflash.Fig3AnalyticalTail(astriflash.DefaultFig3Params())
			out := astriflash.RenderFig3(curves)
			if *plot {
				out += "\n" + astriflash.PlotFig3(curves)
			}
			return out, nil
		}},
		{"fig9", func() (string, error) {
			rows, err := astriflash.Fig9Throughput(cfg, nil)
			if err != nil {
				return "", err
			}
			return astriflash.RenderFig9(rows), nil
		}},
		{"fig10", func() (string, error) {
			curves, err := astriflash.Fig10TailLatency(cfg, nil)
			if err != nil {
				return "", err
			}
			out := astriflash.RenderFig10(curves)
			if *plot {
				out += "\n" + astriflash.PlotFig10(curves)
			}
			return out, nil
		}},
		{"table2", func() (string, error) {
			rows, err := astriflash.Table2ServiceLatency(cfg, "tatp")
			if err != nil {
				return "", err
			}
			return astriflash.RenderTable2(rows), nil
		}},
		{"gc", func() (string, error) {
			pts, err := astriflash.GCOverheadSweep(cfg, "arrayswap")
			if err != nil {
				return "", err
			}
			return astriflash.RenderGC(pts), nil
		}},
		{"anatomy", func() (string, error) {
			rows, err := astriflash.Anatomy(cfg, "tatp", nil)
			if err != nil {
				return "", err
			}
			return astriflash.RenderAnatomy(rows), nil
		}},
		{"faults", func() (string, error) {
			pts, err := astriflash.FaultsSweep(cfg, "tatp", nil)
			if err != nil {
				return "", err
			}
			return astriflash.RenderFaults(pts), nil
		}},
		{"overload", func() (string, error) {
			rep, err := astriflash.OverloadSweep(cfg, "tatp", nil)
			if err != nil {
				return "", err
			}
			out := astriflash.RenderOverload(rep)
			if *plot {
				out += "\n" + astriflash.PlotOverload(rep)
			}
			if *sloStrict && rep.ControlledFail() {
				fmt.Println(out) // the table is the diagnostic; show it before failing
				return "", fmt.Errorf("adaptive controller failed to hold p99 within its SLO threshold (-slo-strict)")
			}
			return out, nil
		}},
		{"economics", func() (string, error) {
			rep, err := astriflash.EconomicsSweep(cfg)
			if err != nil {
				return "", err
			}
			return astriflash.RenderEconomics(rep), nil
		}},
	}

	known := map[string]bool{"all": true}
	for _, e := range experiments {
		known[e.name] = true
	}
	for name := range selected {
		if !known[name] {
			fmt.Fprintf(os.Stderr, "unknown experiment %q\n", name)
			os.Exit(2)
		}
	}

	ran := 0
	suiteStart := time.Now()
	for _, e := range experiments {
		if !want(e.name) {
			continue
		}
		start := time.Now()
		out, err := e.run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", e.name, err)
			os.Exit(1)
		}
		fmt.Println(out)
		fmt.Printf("(%s completed in %.1fs wall time)\n\n", e.name, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "no experiments selected")
		os.Exit(2)
	}
	wall := time.Since(suiteStart).Seconds()
	points := astriflash.SimRuns()
	rate := 0.0
	if wall > 0 {
		rate = float64(points) / wall
	}
	prof := astriflash.SelfProfile()
	fmt.Printf("total: %d simulation points in %.1fs wall time (%.1f points/sec, %.2e events/sec/worker, workers=%d)\n",
		points, wall, rate, prof.EventsPerSec(), runner.Workers(*workers))
}

// runTail runs the fig-10-style observed run once and writes whichever
// outputs were asked for: with a timeline or OpenMetrics path, the
// per-window tables and SLO verdicts go to stdout and the windows to disk;
// with a trace path, the spans go to disk and a per-point summary to
// stdout. Trace volume scales with -measure; a few simulated ms is plenty
// for a stage breakdown. With strict set, any FAIL verdict becomes a
// non-zero exit after the capture is written — CI gets a red build and the
// artifacts.
func runTail(cfg astriflash.ExpConfig, tracePath, csvPath, omPath, sloSpecs string, strict bool) error {
	start := time.Now()
	var specs []string
	for _, s := range strings.Split(sloSpecs, ",") {
		if strings.TrimSpace(s) != "" {
			specs = append(specs, s)
		}
	}
	tc, err := astriflash.TailRun(cfg, "tatp", astriflash.TailOptions{SLOSpecs: specs})
	if err != nil {
		return err
	}
	if csvPath != "" || omPath != "" {
		fmt.Print(tc.Render())
	}
	if csvPath != "" {
		if err := writeFile(csvPath, tc.WriteCSV); err != nil {
			return err
		}
		fmt.Printf("wrote %d timeline windows to %s in %.1fs; run 'astritrace timeline -in %s' to re-render\n",
			len(tc.Samples()), csvPath, time.Since(start).Seconds(), csvPath)
	}
	if omPath != "" {
		if err := writeFile(omPath, tc.WriteOpenMetrics); err != nil {
			return err
		}
	}
	if tracePath != "" {
		if err := writeFile(tracePath, tc.WriteJSON); err != nil {
			return err
		}
		for _, p := range tc.Points {
			fmt.Printf("point %-22s  %8.0f jobs/s  p99 svc %6.1f us  miss %.2f%%\n",
				p.Label, p.Metrics.ThroughputJPS,
				float64(p.Metrics.P99ServiceNs)/1000, p.Metrics.DRAMCacheMissRatio*100)
		}
		fmt.Printf("wrote %d spans to %s in %.1fs; run 'astritrace analyze -in %s' for the stage breakdown\n",
			len(tc.Spans()), tracePath, time.Since(start).Seconds(), tracePath)
	}
	if strict {
		for _, v := range tc.Verdicts() {
			if !v.Pass {
				return fmt.Errorf("SLO %s failed (-slo-strict)", v.SLO)
			}
		}
	}
	return nil
}

// writeFile streams write into a freshly created file.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
