// Command benchmark measures the simulator end to end and layer by layer.
//
// It runs four fixed workloads (workloads.go) as one process, one
// simulation at a time. Rounds run every selected workload once, in a
// fixed order, with tracing off; they give the end-to-end metrics (set-up
// CPU time, CPU time per simulated request, live heap, in-run mallocs per
// simulated request) and check every run's simulated outputs. A
// profiled pass then runs each workload under the CPU and heap profilers
// and a span tracer and prints the per-layer metrics. See README.md.
//
//	go -C benchmark run . -seed 42367                 # all workloads, 9 rounds, profiled pass
//	bash benchmark/run.sh --workload tatp-dram --seed 7 --seconds 25 --trace 0
//	go -C benchmark run . -compare OLD.json NEW.json  # bounds from BENCHMARK.json
//
// The last line of standard output is a JSON summary: correct, attempted,
// failed, and the metrics (per-layer ones with -trace 1).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"
)

// endToEnd lists the end-to-end metrics; their bounds live in
// BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"cpu_us_per_job", "us", "lower"},
	{"heap_mb", "MiB", "lower"},
	{"run_mallocs_per_job", "count", "lower"},
}

func main() {
	var (
		workloads = flag.String("workload", "all", "comma-separated workloads, or all")
		seed      = flag.Uint64("seed", 42367, "workload seed (0 is the simulator's default seed)")
		rounds    = flag.Int("rounds", 9, "rounds per workload when -seconds is 0")
		seconds   = flag.Int("seconds", 0, "measure for this many seconds instead of -rounds")
		trace     = flag.Int("trace", -1, "0: rounds only, end-to-end summary; 1: rounds and profiled pass, per-layer summary; -1: both")
		workdir   = flag.String("workdir", ".bench_build", "directory for the JSON report and profiles")
		cmp       = flag.Bool("compare", false, "compare reports against the bounds in BENCHMARK.json (./ or ../): -compare OLD.json[,OLD2.json...] NEW.json[,...]")
	)
	flag.Parse()
	if *cmp {
		if flag.NArg() != 2 {
			fatalf("-compare needs OLD and NEW report paths")
		}
		worse, err := compare("", strings.Split(flag.Arg(0), ","), strings.Split(flag.Arg(1), ","), os.Stdout)
		if err != nil {
			fatalf("%v", err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}

	var sel []spec
	if *workloads == "all" {
		sel = specs()
	} else {
		for _, name := range strings.Split(*workloads, ",") {
			s, err := specByName(name)
			if err != nil {
				fatalf("%v", err)
			}
			sel = append(sel, s)
		}
	}
	if *trace < -1 || *trace > 1 || *rounds < 1 || *seconds < 0 {
		fatalf("bad -trace, -rounds or -seconds")
	}

	rep := newReport(*seed, *rounds, *seconds)
	run(sel, rep, *seed, *rounds, time.Duration(*seconds)*time.Second, *trace != 0, *workdir)
	if err := rep.write(filepath.Join(*workdir, "report.json")); err != nil {
		fatalf("%v", err)
	}
	printHuman(os.Stdout, sel, rep, *trace != 0)

	sum := rep.summary(*trace != 1, *trace != 0)
	line, err := json.Marshal(sum)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(line))
	if !sum.Correct {
		os.Exit(1)
	}
}

// minRounds keeps quartiles meaningful when -seconds ends rounds early.
const minRounds = 3

// run executes the rounds, interleaved across workloads, then the
// profiled pass, filling rep. An operation is one workload run, in a
// round or in the profiled pass.
func run(sel []spec, rep *report, seed uint64, rounds int, budget time.Duration, profile bool, workdir string) {
	samples := make([][]sample, len(sel))
	start := time.Now()
	for r := 0; ; r++ {
		if budget > 0 && r >= minRounds && time.Since(start) >= budget {
			break
		}
		if budget == 0 && r >= rounds {
			break
		}
		for i, s := range sel {
			wr := rep.workload(s, seed)
			wr.Attempted++
			smp, err := measure(s, seed)
			if err == nil && len(samples[i]) > 0 && smp.digest != samples[i][0].digest {
				err = fmt.Errorf("%s: round %d digest %s != round 0 digest %s", s.name, r, smp.digest, samples[i][0].digest)
			}
			if err != nil {
				wr.fail(1, err)
				continue
			}
			samples[i] = append(samples[i], smp)
		}
		rep.Provenance.RoundsRun++
	}
	for i, s := range sel {
		wr := rep.workload(s, seed)
		if len(samples[i]) == 0 {
			continue
		}
		wr.Digest = samples[i][0].digest
		wr.EndToEnd = endToEndStats(samples[i])
		if !profile {
			continue
		}
		wr.Attempted += profiledRuns
		p, err := profilePass(s, seed, filepath.Join(workdir, "profiles"), samples[i])
		if err != nil {
			wr.fail(profiledRuns-p.ok, err)
			continue
		}
		wr.PerLayer = p.layers
	}
}

// endToEndStats reduces one workload's samples to its end-to-end metrics.
func endToEndStats(smps []sample) map[string]stat {
	per := map[string][]float64{}
	for _, s := range smps {
		per["setup_s"] = append(per["setup_s"], float64(s.setupCPUNs)/1e9)
		jobs := float64(s.metrics.Jobs)
		per["cpu_us_per_job"] = append(per["cpu_us_per_job"], float64(s.runCPUNs)/1e3/jobs)
		per["heap_mb"] = append(per["heap_mb"], float64(s.heapBytes)/(1<<20))
		per["run_mallocs_per_job"] = append(per["run_mallocs_per_job"], float64(s.mallocs)/jobs)
	}
	out := map[string]stat{}
	for _, d := range endToEnd {
		q1, v, q3 := quartiles(per[d.Name])
		if d.Name == "cpu_us_per_job" {
			// The fastest round: other tenants' interference only ever
			// adds host time, in phases that can outlast several rounds.
			v = slices.Min(per[d.Name])
		}
		out[d.Name] = stat{Value: v, Unit: d.Unit, Q1: q1, Q3: q3, Samples: per[d.Name]}
	}
	return out
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(2)
}
