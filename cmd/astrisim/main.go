// Command astrisim runs one AstriFlash system configuration against one
// workload and prints the measured metrics.
//
// Usage:
//
//	astrisim -mode astriflash -workload tatp -cores 16 -dataset 32 -measure 20
//
// Modes: dram-only, astriflash, astriflash-ideal, astriflash-nops,
// astriflash-nodp, os-swap, flash-sync. Workloads: arrayswap, rbt,
// hashtable, tatp, tpcc, silo, masstree, plus tinykv (tiny-object KV,
// used by the economics experiment; tune with -objbytes). Open-loop mode
// (-rate) switches from saturated closed-loop measurement to Poisson
// arrivals. -cpuprofile and -memprofile profile the simulation run (not
// the machine's construction) for `go tool pprof`; the memory profile
// records every allocation, so -sample_index=alloc_objects lists exact
// allocation sites.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"

	"astriflash"
	"astriflash/internal/obs/timeline"
	"astriflash/internal/stats"
)

var modeNames = map[string]astriflash.Mode{
	"dram-only":        astriflash.DRAMOnly,
	"astriflash":       astriflash.AstriFlash,
	"astriflash-ideal": astriflash.AstriFlashIdeal,
	"astriflash-nops":  astriflash.AstriFlashNoPS,
	"astriflash-nodp":  astriflash.AstriFlashNoDP,
	"os-swap":          astriflash.OSSwap,
	"flash-sync":       astriflash.FlashSync,
}

func main() {
	var (
		modeFlag  = flag.String("mode", "astriflash", "system configuration")
		wlFlag    = flag.String("workload", "tatp", "workload name")
		cores     = flag.Int("cores", 16, "simulated cores")
		datasetMB = flag.Uint64("dataset", 32, "dataset size in MB")
		cacheFrac = flag.Float64("cache", 0.03, "DRAM cache fraction of dataset")
		inflight  = flag.Int("inflight", 48, "closed-loop jobs outstanding per core")
		warmupMs  = flag.Int64("warmup", 10, "warmup in simulated ms")
		measureMs = flag.Int64("measure", 20, "measurement window in simulated ms")
		rate      = flag.Float64("rate", 0, "open-loop arrival rate in jobs/s (0 = saturated closed loop)")
		arrivals  = flag.String("arrivals", "poisson", "with -rate, the arrival process: poisson, mmpp, diurnal, flashcrowd")
		burst     = flag.Float64("burstiness", 0.6, "mmpp: rate split between burst and calm states, in [0,1)")
		surge     = flag.Float64("surge", 3, "flashcrowd: rate multiplier during the surge window")
		admit     = flag.String("admit", "none", "with -rate, the admission controller: none, static, codel")
		admitCap  = flag.Int("admit-limit", 0, "static: in-system concurrency cap (0 = 8x cores)")
		admPolicy = flag.String("admission", "", "DRAM-cache flash-write admission policy: admit-all, write-threshold, hit-economics (empty = admit-all)")
		admBar    = flag.Int("admission-threshold", 0, "write-threshold: region access count required for admission (0 = default)")
		objBytes  = flag.Uint64("objbytes", 0, "tinykv object size in bytes (0 = workload default)")
		deadline  = flag.Int64("deadline", 0, "per-request deadline in us (0 = none); completions past it count as deadline misses")
		dropExp   = flag.Bool("drop-expired", false, "drop requests whose deadline passed before their first dispatch")
		queueCap  = flag.Int("queue-limit", 0, "bound on admitted-but-unfinished requests; arrivals beyond it are dropped (0 = unbounded)")
		sloStrict = flag.Bool("slo-strict", false, "exit non-zero when any -slo verdict fails")
		seed      = flag.Uint64("seed", 0, "simulation seed (0 = default)")
		traceOut  = flag.String("trace", "", "write the run's lifecycle-span trace to this file (Chrome trace-event JSON; analyze with 'astritrace analyze')")
		counters  = flag.Bool("counters", false, "also print the registry's window deltas, gauges, and histogram summaries")
		tlOut     = flag.String("timeline", "", "sample the registry every -interval of simulated time and write the timeline CSV here ('-' prints the per-window table only; view with 'astritrace timeline')")
		interval  = flag.Int64("interval", 1000, "timeline sampling interval in simulated us")
		sloFlag   = flag.String("slo", "", "comma-separated latency objectives evaluated per timeline window, e.g. 'p99<150us,system.service_ns:p99.9<2ms' (implies timeline sampling)")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile of the simulation run to this file")
		memProf   = flag.String("memprofile", "", "write a profile of every allocation the simulation run makes to this file")
	)
	flag.Parse()
	if *memProf != "" {
		// Record no allocations until the run starts (startProfiles), so
		// the machine's construction stays out of the profile.
		runtime.MemProfileRate = 0
	}
	if *inflight < 1 {
		fmt.Fprintf(os.Stderr, "astrisim: -inflight must be at least 1, got %d\n", *inflight)
		flag.Usage()
		os.Exit(2)
	}
	if *rate < 0 {
		fmt.Fprintf(os.Stderr, "astrisim: -rate must not be negative, got %v\n", *rate)
		flag.Usage()
		os.Exit(2)
	}

	var slos []timeline.SLO
	for _, spec := range strings.Split(*sloFlag, ",") {
		if strings.TrimSpace(spec) == "" {
			continue
		}
		s, err := timeline.ParseSLO(spec)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		slos = append(slos, s)
	}
	sampling := *tlOut != "" || len(slos) > 0

	mode, ok := modeNames[strings.ToLower(*modeFlag)]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown mode %q; one of:", *modeFlag)
		for name := range modeNames {
			fmt.Fprintf(os.Stderr, " %s", name)
		}
		fmt.Fprintln(os.Stderr)
		os.Exit(2)
	}

	opts := astriflash.DefaultOptions(mode, *wlFlag)
	opts.Cores = *cores
	opts.DatasetBytes = *datasetMB << 20
	opts.CacheFraction = *cacheFrac
	opts.AdmissionPolicy = *admPolicy
	opts.AdmissionThreshold = *admBar
	opts.ObjectBytes = *objBytes
	if *seed != 0 {
		opts.Seed = *seed
	}

	machine, err := astriflash.NewMachine(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	if *traceOut != "" {
		machine.EnableTracing()
	}
	if sampling {
		if err := machine.EnableTimeline(*interval*1000, slos); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	}

	warm := *warmupMs * 1_000_000
	meas := *measureMs * 1_000_000
	stopProfiles, err := startProfiles(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var res astriflash.Metrics
	if *rate > 0 {
		limit := *admitCap
		if *admit == "static" && limit == 0 {
			limit = 8 * *cores
		}
		// Shape timescales derive from the run window: MMPP states dwell
		// ~20 windows per run, the diurnal "day" is one measurement
		// window, and the flash crowd surges for the middle third of it.
		res, err = machine.RunOverload(astriflash.OverloadRun{
			Shape:        strings.ToLower(*arrivals),
			MeanGapNs:    1e9 / *rate,
			Burstiness:   *burst,
			DwellNs:      float64(meas) / 20,
			Amplitude:    0.5,
			PeriodNs:     float64(meas),
			Surge:        *surge,
			SurgeStartNs: float64(warm) + float64(meas)/3,
			SurgeDurNs:   float64(meas) / 3,
			Controller:   strings.ToLower(*admit),
			StaticLimit:  limit,
			QueueLimit:   *queueCap,
			DeadlineNs:   *deadline * 1000,
			DropExpired:  *dropExp,
			WarmupNs:     warm,
			MeasureNs:    meas,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	} else {
		res = machine.RunSaturated(*inflight, warm, meas)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}

	fmt.Printf("configuration     %s\n", res.Mode)
	fmt.Printf("workload          %s\n", res.Workload)
	fmt.Printf("simulated window  %d ms\n", res.SimulatedNs/1_000_000)
	fmt.Printf("jobs completed    %d\n", res.Jobs)
	fmt.Printf("throughput        %.0f jobs/s\n", res.ThroughputJPS)
	fmt.Printf("service latency   mean %.1f us, p50 %.1f us, p99 %.1f us\n",
		float64(res.MeanServiceNs)/1000, float64(res.P50ServiceNs)/1000, float64(res.P99ServiceNs)/1000)
	fmt.Printf("response latency  p50 %.1f us, p99 %.1f us\n",
		float64(res.P50ResponseNs)/1000, float64(res.P99ResponseNs)/1000)
	fmt.Printf("queueing          p50 %.1f us, p99 %.1f us\n",
		float64(res.P50QueueNs)/1000, float64(res.P99QueueNs)/1000)
	fmt.Printf("DRAM-cache misses %.2f%% of accesses, one per %.1f us per core\n",
		res.DRAMCacheMissRatio*100, float64(res.MeanMissIntervalNs)/1000)
	fmt.Printf("flash             %d reads, %d writes, %d GC runs (%.2f%% reads blocked)\n",
		res.FlashReads, res.FlashWrites, res.GCRuns, res.GCBlockedFraction*100)
	if *admPolicy != "" && *admPolicy != "admit-all" {
		fmt.Printf("admission filter  %d fetches bypassed, %d ring hits, %d dirty ring writebacks\n",
			res.AdmissionBypassed, res.BypassHits, res.BypassWritebacks)
	}
	if res.ForcedSyncCount > 0 {
		fmt.Printf("forced sync       %d forward-progress completions\n", res.ForcedSyncCount)
	}
	if res.Offered > 0 {
		fmt.Printf("admission         %d offered, %d admitted, %d shed, %d queue-full drops\n",
			res.Offered, res.Admitted, res.AdmissionSheds, res.QueueFullDrops)
	}
	if res.DeadlineMisses+res.ExpiredDrops+res.ExpiredInFlash > 0 {
		fmt.Printf("deadlines         %d served late, %d dropped expired (%d expired mid-flash); goodput %.0f jobs/s\n",
			res.DeadlineMisses, res.ExpiredDrops, res.ExpiredInFlash, res.GoodputJPS)
	}
	if *counters {
		printRegistry(machine, res)
	}
	strictFailed := false
	if sampling {
		samples := machine.TimelineSamples()
		verdicts := timeline.Evaluate(samples, slos)
		for _, v := range verdicts {
			if !v.Pass {
				strictFailed = true
			}
		}
		fmt.Println()
		fmt.Print(timeline.Render(samples, slos, verdicts, timeline.RenderOptions{
			PointLabels: map[int]string{0: fmt.Sprintf("%s/%s", res.Mode, res.Workload)},
		}))
		if *tlOut != "" && *tlOut != "-" {
			f, err := os.Create(*tlOut)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			err = timeline.WriteCSV(f, samples, *interval*1000, slos)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %d timeline windows to %s (view with 'astritrace timeline -in %s')\n",
				len(samples), *tlOut, *tlOut)
		}
	}
	if *traceOut != "" {
		writeTrace(machine, *traceOut)
	}
	if *sloStrict && strictFailed {
		fmt.Fprintln(os.Stderr, "astrisim: SLO verdict FAIL (-slo-strict)")
		os.Exit(1)
	}
}

// printRegistry renders the full registry view: counter deltas over the
// measurement window, gauges at run end, and cumulative histogram
// summaries — sorted, aligned, one table per kind.
func printRegistry(machine *astriflash.Machine, res astriflash.Metrics) {
	names := make([]string, 0, len(res.Counters))
	for n := range res.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	ct := stats.Table{Header: []string{"counter", fmt.Sprintf("delta over %d ms window", res.SimulatedNs/1_000_000)}}
	for _, n := range names {
		ct.AddRow(n, fmt.Sprintf("%d", res.Counters[n]))
	}
	fmt.Println("\nregistry counters (measurement-window deltas):")
	fmt.Print(ct.String())

	reg := machine.Registry()
	gauges := reg.GaugeSnapshot()
	if len(gauges) > 0 {
		gt := stats.Table{Header: []string{"gauge", "value at run end"}}
		for _, n := range reg.GaugeNames() {
			gt.AddRow(n, fmt.Sprintf("%g", gauges[n]))
		}
		fmt.Println("\nregistry gauges:")
		fmt.Print(gt.String())
	}
	hists := reg.HistogramSnapshot()
	if len(hists) > 0 {
		ht := stats.Table{Header: []string{"histogram", "count", "p50 (us)", "p99 (us)"}}
		for _, n := range reg.HistogramNames() {
			h := hists[n]
			ht.AddRow(n, fmt.Sprintf("%d", h.Count),
				fmt.Sprintf("%.1f", float64(h.P50Ns)/1000), fmt.Sprintf("%.1f", float64(h.P99Ns)/1000))
		}
		fmt.Println("\nregistry histograms (cumulative over the run):")
		fmt.Print(ht.String())
	}
}

// writeTrace saves the captured span stream.
func writeTrace(machine *astriflash.Machine, path string) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := machine.WriteTrace(f); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := f.Close(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %d spans to %s (analyze with 'astritrace analyze -in %s')\n",
		machine.TraceSpanCount(), path, path)
}

// startProfiles starts profiling the simulation run: a CPU profile to
// cpuPath and, to memPath, a profile of every allocation (either path may
// be empty). MemProfileRate is 0 before the run (main) and 1 during it,
// so the allocation profile counts the run exactly and construction not
// at all. The returned function stops both and writes the profiles.
func startProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		if cpuFile, err = os.Create(cpuPath); err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("cpu profile: %w", err)
		}
	}
	if memPath != "" {
		runtime.MemProfileRate = 1
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath == "" {
			return nil
		}
		runtime.MemProfileRate = 0
		runtime.GC() // publish the run's last allocations to the profile
		f, err := os.Create(memPath)
		if err != nil {
			return err
		}
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			f.Close()
			return fmt.Errorf("memory profile: %w", err)
		}
		return f.Close()
	}, nil
}
