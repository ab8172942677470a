package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"astriflash"
	"astriflash/internal/obs"
)

// The profiled pass runs each workload once more under three probes — a
// CPU profile of set-up, a heap profile of the built machine, and a CPU
// profile of the run — then runs a traced/untraced pair of short windows
// whose spans feed obs.Analyze. Its timings are never end-to-end metrics.

// Layer sets, named after the simulator's internal packages. "gc" holds
// CPU samples with no simulator frame (runtime and garbage collection);
// "other" holds every package not listed.
var (
	hostLayers  = []string{"sim", "tlbvm", "cachehier", "dram", "dramcache", "flash", "uthread", "workload", "mem", "loadgen", "overload", "system", "obs", "stats", "gc", "other"}
	setupLayers = []string{"workload", "mem", "sim", "flash", "dramcache", "system", "gc", "other"}
	heapLayers  = []string{"workload", "flash", "dramcache", "system", "stats", "other"}
	// spanStages are the request stages whose share of service time is
	// reported; queue time is reported as a p99 instead.
	spanStages = []string{"compute", "tlb", "on-chip", "dram", "miss-signal", "flush-switch", "flash-wait", "sync-wait", "sched-wait"}
)

const (
	// minSetupProfile is how long set-up is repeated under the CPU
	// profiler, so a millisecond set-up still yields 10 ms samples.
	minSetupProfile = 300 * time.Millisecond
	// heapProfileRate samples one allocation per 64 KiB during the pass.
	heapProfileRate = 64 << 10
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// layerDefs lists every per-layer metric in report order.
func layerDefs() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{n, unit, better})
		}
	}
	for _, l := range hostLayers {
		add("ratio", "lower", l+".host_share")
	}
	add("count", "lower", "sim.events")
	add("count/us", "lower", "sim.events_per_sim_us")
	add("ns", "lower", "sim.host_ns_per_event", "workload.host_ns_per_job",
		"dramcache.host_ns_per_access", "flash.host_ns_per_op")
	for _, l := range setupLayers {
		add("ratio", "lower", l+".setup_share")
	}
	for _, l := range heapLayers {
		add("MiB", "lower", l+".heap_mb")
	}
	for _, st := range spanStages {
		add("ratio", "lower", "stage."+st+".share")
	}
	add("us", "lower", "stage.queue.p99_us", "fetch.msr-wait.p99_us", "fetch.flash-read.p99_us")
	add("count", "higher", "system.jobs_done", "loadgen.offered")
	add("count", "lower", "dramcache.accesses", "dramcache.evictions", "dramcache.dirty_writebacks",
		"dramcache.adm_bypassed", "dramcache.bypass_hits",
		"flash.reads", "flash.writes", "flash.programs", "flash.gc_runs",
		"uthread.switches", "uthread.blocked_on_full", "system.forced_sync", "gc.cycles")
	add("ratio", "higher", "dramcache.hit_ratio", "system.good_frac")
	add("ratio", "lower", "dramcache.merged_frac", "flash.write_amp", "flash.gc_blocked_frac",
		"overload.shed_frac", "system.expired_frac")
	add("MiB", "lower", "gc.run_alloc_mb")
	add("1/s", "higher", "model.jobs_per_s", "model.goodput_jps")
	add("us", "lower", "model.p99_resp_us", "model.p99_svc_us")
	add("ratio", "lower", "model.dc_miss_ratio",
		"obs.profile_overhead", "obs.span_overhead", "noise.run_iqr_frac")
	add("sim-ns/s", "higher", "noise.sim_ns_per_s_median")
	return defs
}

// profiled is the outcome of one workload's profiled pass.
type profiled struct {
	layers map[string]float64
	ok     int // simulation runs that completed and passed their checks
}

// profiledRuns is the number of simulation runs one profiled pass makes:
// the profiled run and the traced pair.
const profiledRuns = 3

// profilePass runs the profiled pass for s and derives the per-layer
// metrics; rounds are the workload's untraced samples (at least one).
func profilePass(s spec, seed uint64, dir string, rounds []sample) (p profiled, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: profiled pass: panic: %v", s.name, r)
		}
	}()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return p, err
	}
	prevRate := runtime.MemProfileRate
	runtime.MemProfileRate = heapProfileRate
	defer func() { runtime.MemProfileRate = prevRate }()
	prefix := filepath.Join(dir, s.name)
	ref := rounds[0]

	// Probe 1: set-up under the CPU profiler, repeated until it has run
	// long enough to sample.
	var m *astriflash.Machine
	runtime.GC()
	err = cpuProfile(prefix+".setup.pprof", func() error {
		start := time.Now()
		for m == nil || time.Since(start) < minSetupProfile {
			m = nil
			var err error
			if m, err = astriflash.NewMachine(s.options(seed)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return p, err
	}

	// Probe 2: the built machine's live heap.
	runtime.GC()
	if err := writeFile(prefix+".heap.pprof", func(f *os.File) error {
		return pprof.Lookup("heap").WriteTo(f, 0)
	}); err != nil {
		return p, err
	}

	// Probe 3: the run under the CPU profiler.
	var met astriflash.Metrics
	err = cpuProfile(prefix+".run.pprof", func() error {
		var err error
		met, err = s.run(m, s.measureNs)
		return err
	})
	if err != nil {
		return p, err
	}
	if d := digest(met); d != ref.digest {
		return p, fmt.Errorf("%s: profiled run digest %s != untraced %s", s.name, d, ref.digest)
	}
	p.ok++
	profWallNs := m.LastRunProfile().WallNs
	m = nil

	run, err := pprofFold(prefix+".run.pprof", "")
	if err != nil {
		return p, err
	}
	setup, err := pprofFold(prefix+".setup.pprof", "")
	if err != nil {
		return p, err
	}
	heap, err := pprofFold(prefix+".heap.pprof", "inuse_space")
	if err != nil {
		return p, err
	}

	// The traced pair: the same short window with and without spans.
	plain, plainNs, _, err := runShort(s, seed, false)
	if err != nil {
		return p, err
	}
	p.ok++
	traced, tracedNs, spans, err := runShort(s, seed, true)
	if err != nil {
		return p, err
	}
	if digest(plain) != digest(traced) {
		return p, fmt.Errorf("%s: traced run digest %s != untraced %s", s.name, digest(traced), digest(plain))
	}
	rep := obs.Analyze(spans, obs.AnalyzeOptions{})
	if rep.Complete == 0 || rep.Reconciled != rep.Complete || rep.MaxDriftNs != 0 {
		return p, fmt.Errorf("%s: spans do not reconcile: %d/%d requests, max drift %d ns",
			s.name, rep.Reconciled, rep.Complete, rep.MaxDriftNs)
	}
	p.ok++

	p.layers = layerMetrics(s, rounds, met, profWallNs, run, setup, heap, rep, spans)
	p.layers["obs.span_overhead"] = float64(tracedNs)/float64(plainNs) - 1
	return p, nil
}

// layerMetrics derives the per-layer metrics from the pass's folds, the
// span report, and the untraced rounds.
func layerMetrics(s spec, rounds []sample, met astriflash.Metrics, profWallNs int64,
	run, setup, heap map[string]float64, rep *obs.Report, spans []obs.Span) map[string]float64 {
	out := map[string]float64{}
	c := met.Counters
	ref := rounds[0]

	runNs := make([]float64, len(rounds))
	cpuNs := make([]float64, len(rounds))
	simRate := make([]float64, len(rounds))
	allocMB := make([]float64, len(rounds))
	gcs := make([]float64, len(rounds))
	for i, r := range rounds {
		runNs[i] = float64(r.runNs)
		cpuNs[i] = float64(r.runCPUNs)
		simRate[i] = float64(r.simNs) / (float64(r.runNs) / 1e9)
		allocMB[i] = float64(r.allocB) / (1 << 20)
		gcs[i] = float64(r.gcCycles)
	}
	q1, wallNs, q3 := quartiles(runNs)
	_, runCPUNs, _ := quartiles(cpuNs)
	_, out["noise.sim_ns_per_s_median"], _ = quartiles(simRate)
	_, out["gc.run_alloc_mb"], _ = quartiles(allocMB)
	_, out["gc.cycles"], _ = quartiles(gcs)
	out["noise.run_iqr_frac"] = (q3 - q1) / wallNs
	out["obs.profile_overhead"] = float64(profWallNs)/wallNs - 1

	share := shares(run, hostLayers, "gc")
	for l, v := range share {
		out[l+".host_share"] = v
	}
	for l, v := range shares(setup, setupLayers, "gc") {
		out[l+".setup_share"] = v
	}
	for l, v := range grouped(heap, heapLayers, "other") {
		out[l+".heap_mb"] = v / (1 << 20)
	}

	// CPU time per unit of work: a layer's share of the untraced run's CPU
	// time, pro-rated to the measurement window the counters cover.
	window := runCPUNs * float64(s.measureNs) / float64(s.warmupNs+s.measureNs)
	per := func(layer string, n uint64) float64 {
		if n == 0 {
			return 0
		}
		return share[layer] * window / float64(n)
	}
	accesses := c["dramcache.hits"] + c["dramcache.misses"]
	out["sim.events"] = float64(ref.events)
	out["sim.events_per_sim_us"] = float64(ref.events) / (float64(ref.simNs) / 1e3)
	out["sim.host_ns_per_event"] = runCPUNs / float64(ref.events)
	out["workload.host_ns_per_job"] = per("workload", met.Jobs)
	out["dramcache.host_ns_per_access"] = per("dramcache", accesses)
	out["flash.host_ns_per_op"] = per("flash", met.FlashReads+met.FlashPrograms)

	for _, st := range spanStages {
		out["stage."+st+".share"] = 0
	}
	for _, row := range rep.StageRows {
		out["stage."+row.Stage.String()+".share"] = row.Share
	}
	out["fetch.msr-wait.p99_us"], out["fetch.flash-read.p99_us"] = 0, 0
	for _, row := range rep.FetchRows {
		out["fetch."+row.Stage.String()+".p99_us"] = float64(row.P99Ns) / 1e3
	}
	out["stage.queue.p99_us"] = float64(queueP99(spans)) / 1e3

	frac := func(n, d uint64) float64 {
		if d == 0 {
			return 0
		}
		return float64(n) / float64(d)
	}
	out["system.jobs_done"] = float64(c["system.jobs_done"])
	out["system.forced_sync"] = float64(c["system.forced_sync"])
	out["dramcache.accesses"] = float64(accesses)
	out["dramcache.hit_ratio"] = frac(c["dramcache.hits"], accesses)
	out["dramcache.merged_frac"] = frac(c["dramcache.merged_misses"], c["dramcache.misses"])
	for _, n := range []string{"evictions", "dirty_writebacks", "adm_bypassed", "bypass_hits"} {
		out["dramcache."+n] = float64(c["dramcache."+n])
	}
	out["flash.reads"] = float64(met.FlashReads)
	out["flash.writes"] = float64(met.FlashWrites)
	out["flash.programs"] = float64(met.FlashPrograms)
	out["flash.write_amp"] = met.WriteAmplification
	out["flash.gc_runs"] = float64(met.GCRuns)
	out["flash.gc_blocked_frac"] = met.GCBlockedFraction
	out["uthread.switches"] = float64(sumCounters(c, "switches"))
	out["uthread.blocked_on_full"] = float64(sumCounters(c, "blocked_on_full"))
	out["loadgen.offered"] = float64(met.Offered)
	out["overload.shed_frac"] = frac(met.AdmissionSheds, met.Offered)
	out["system.expired_frac"] = frac(met.ExpiredDrops, met.Offered)
	out["system.good_frac"] = frac(met.GoodJobs, met.Offered)
	out["model.jobs_per_s"] = met.ThroughputJPS
	out["model.goodput_jps"] = met.GoodputJPS
	out["model.p99_resp_us"] = float64(met.P99ResponseNs) / 1e3
	out["model.p99_svc_us"] = float64(met.P99ServiceNs) / 1e3
	out["model.dc_miss_ratio"] = met.DRAMCacheMissRatio
	return out
}

// shares normalizes a fold over the listed layers; unlisted layers go to
// "other" and samples with no simulator frame to none.
func shares(fold map[string]float64, layers []string, none string) map[string]float64 {
	g := grouped(fold, layers, none)
	var total float64
	for _, v := range g {
		total += v
	}
	for l := range g {
		if total > 0 {
			g[l] /= total
		}
	}
	return g
}

// grouped maps a fold onto the listed layers (every one present, zero if
// unsampled).
func grouped(fold map[string]float64, layers []string, none string) map[string]float64 {
	g := make(map[string]float64, len(layers))
	for _, l := range layers {
		g[l] = 0
	}
	for l, v := range fold {
		switch _, listed := g[l]; {
		case l == "":
			g[none] += v
		case listed:
			g[l] += v
		default:
			g["other"] += v
		}
	}
	return g
}

// sumCounters totals a per-core uthread counter across cores.
func sumCounters(c map[string]uint64, suffix string) uint64 {
	var n uint64
	for k, v := range c {
		if strings.HasPrefix(k, "uthread.core") && strings.HasSuffix(k, "."+suffix) {
			n += v
		}
	}
	return n
}

// queueP99 is the nearest-rank p99 of the traced requests' queue time.
func queueP99(spans []obs.Span) int64 {
	var q []int64
	for _, sp := range spans {
		if sp.Stage == obs.StageQueue {
			q = append(q, sp.Dur())
		}
	}
	if len(q) == 0 {
		return 0
	}
	sort.Slice(q, func(i, j int) bool { return q[i] < q[j] })
	i := (99*len(q)+99)/100 - 1
	return q[i]
}

// runShort builds a fresh machine and runs the traced pair's short
// window, capturing spans when traced; spans are read back through the
// trace file format.
func runShort(s spec, seed uint64, traced bool) (met astriflash.Metrics, wallNs int64, spans []obs.Span, err error) {
	runtime.GC()
	m, err := astriflash.NewMachine(s.options(seed))
	if err != nil {
		return met, 0, nil, err
	}
	if traced {
		m.EnableTracing()
	}
	if met, err = s.run(m, s.traceNs); err == nil {
		err = check(s, met)
	}
	wallNs = m.LastRunProfile().WallNs
	if err != nil || !traced {
		return met, wallNs, nil, err
	}
	var buf bytes.Buffer
	if err := m.WriteTrace(&buf); err != nil {
		return met, wallNs, nil, err
	}
	spans, err = obs.ReadTrace(&buf)
	return met, wallNs, spans, err
}

// cpuProfile runs fn under the CPU profiler, writing the profile to path.
func cpuProfile(path string, fn func() error) error {
	return writeFile(path, func(f *os.File) error {
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		err := fn()
		pprof.StopCPUProfile()
		return err
	})
}

// writeFile creates path, hands it to fn, and closes it.
func writeFile(path string, fn func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
