package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
)

// reportSchema versions the JSON report.
const reportSchema = "astriflash-perfbench/v1"

// report is the JSON report one invocation writes.
type report struct {
	Schema     string                     `json:"schema"`
	Provenance provenance                 `json:"provenance"`
	Workloads  map[string]*workloadReport `json:"workloads"`
	order      []string
}

// provenance records what produced the report.
type provenance struct {
	Revision   string `json:"vcs_revision"`
	Modified   string `json:"vcs_modified"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	Seed       uint64 `json:"seed"`
	Rounds     int    `json:"rounds"`
	Seconds    int    `json:"seconds"`
	RoundsRun  int    `json:"rounds_run"`
}

// workloadReport is one workload's results.
type workloadReport struct {
	// OptionsHash identifies the resolved machine configuration and load.
	OptionsHash string `json:"options_hash"`
	// Digest hashes the simulated Metrics every run reproduced.
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Errors    []string           `json:"errors,omitempty"`
	EndToEnd  map[string]stat    `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer,omitempty"`
}

// stat is one end-to-end metric over the rounds: Value is the reported
// statistic of the per-round Samples (the median; the minimum for
// cpu_us_per_job), Q1 and Q3 their quartiles.
type stat struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

func newReport(seed uint64, rounds, seconds int) *report {
	p := provenance{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		Seed:       seed,
		Rounds:     rounds,
		Seconds:    seconds,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.Revision = s.Value
			case "vcs.modified":
				p.Modified = s.Value
			}
		}
	}
	return &report{Schema: reportSchema, Provenance: p, Workloads: map[string]*workloadReport{}}
}

// workload returns s's entry, creating it on first use.
func (r *report) workload(s spec, seed uint64) *workloadReport {
	if wr, ok := r.Workloads[s.name]; ok {
		return wr
	}
	load := fmt.Sprintf("%+v inflight=%d warmup=%d measure=%d", s.options(seed), s.inflight, s.warmupNs, s.measureNs)
	if s.overload != nil {
		load += fmt.Sprintf(" overload=%+v", *s.overload)
	}
	sum := sha256.Sum256([]byte(load))
	wr := &workloadReport{OptionsHash: hex.EncodeToString(sum[:8])}
	r.Workloads[s.name] = wr
	r.order = append(r.order, s.name)
	return wr
}

// fail records n failed operations ending in err.
func (wr *workloadReport) fail(n int, err error) {
	wr.Failed += n
	wr.Errors = append(wr.Errors, err.Error())
}

func (r *report) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// summary is the last line of standard output.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary collects the selected metric families. With one workload the
// metric names are bare; with several they are prefixed "<workload>/".
func (r *report) summary(e2e, layers bool) summary {
	sum := summary{Metrics: map[string]metric{}}
	for _, name := range r.order {
		wr := r.Workloads[name]
		sum.Attempted += wr.Attempted
		sum.Failed += wr.Failed
		key := func(m string) string {
			if len(r.order) == 1 {
				return m
			}
			return name + "/" + m
		}
		if e2e {
			for _, d := range endToEnd {
				if st, ok := wr.EndToEnd[d.Name]; ok {
					sum.Metrics[key(d.Name)] = metric{st.Value, d.Unit}
				}
			}
		}
		if layers && wr.PerLayer != nil {
			for _, d := range layerDefs() {
				sum.Metrics[key(d.Name)] = metric{wr.PerLayer[d.Name], d.Unit}
			}
		}
	}
	sum.Correct = sum.Failed == 0 && sum.Attempted > 0
	return sum
}

// printHuman prints every metric by name with its unit.
func printHuman(w io.Writer, sel []spec, r *report, layers bool) {
	p := r.Provenance
	rev := "unknown (not built from a git checkout with go build)"
	if p.Revision != "" {
		rev = p.Revision + ", modified " + p.Modified
	}
	fmt.Fprintf(w, "seed %d, %d rounds, %s, GOMAXPROCS %d, nproc %d, revision %s\n",
		p.Seed, p.RoundsRun, p.GoVersion, p.GOMAXPROCS, p.NProc, rev)
	for _, s := range sel {
		wr := r.Workloads[s.name]
		fmt.Fprintf(w, "\n%s  (options %s, digest %s, %d/%d operations failed)\n",
			s.name, wr.OptionsHash, wr.Digest, wr.Failed, wr.Attempted)
		for _, e := range wr.Errors {
			fmt.Fprintf(w, "  error: %s\n", e)
		}
		for _, d := range endToEnd {
			st := wr.EndToEnd[d.Name]
			fmt.Fprintf(w, "  %-24s %14.6g %-9s (q1 %.6g, q3 %.6g, n %d)\n",
				d.Name, st.Value, d.Unit, st.Q1, st.Q3, len(st.Samples))
		}
		if !layers || wr.PerLayer == nil {
			continue
		}
		for _, d := range layerDefs() {
			fmt.Fprintf(w, "    %-30s %14.6g %s\n", d.Name, wr.PerLayer[d.Name], d.Unit)
		}
	}
}

// benchSpec is the part of BENCHMARK.json that -compare reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// loadBench reads BENCHMARK.json from path, or from ./ or ../ when path
// is empty.
func loadBench(path string) (benchSpec, error) {
	var bs benchSpec
	cands := []string{path}
	if path == "" {
		cands = []string{"BENCHMARK.json", filepath.Join("..", "BENCHMARK.json")}
	}
	var err error
	for _, c := range cands {
		var b []byte
		if b, err = os.ReadFile(c); err == nil {
			return bs, json.Unmarshal(b, &bs)
		}
	}
	return bs, err
}

// compare prints one row per (end-to-end metric, workload): the change
// from the old reports' median to the new reports' median, judged against
// the metric's bound from BENCHMARK.json. A row is unresolved when the
// old side's own spread (the interquartile range across old reports, or
// across the rounds of a single old report) exceeds the bound. It reports
// whether any row got worse.
func compare(benchPath string, oldPaths, newPaths []string, w io.Writer) (bool, error) {
	bs, err := loadBench(benchPath)
	if err != nil {
		return false, fmt.Errorf("reading BENCHMARK.json: %w", err)
	}
	olds, err := readReports(oldPaths)
	if err != nil {
		return false, err
	}
	news, err := readReports(newPaths)
	if err != nil {
		return false, err
	}
	var names []string
	for n := range olds[0].Workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	worse := false
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %8s %7s %6s  %s\n",
		"workload", "metric", "old", "new", "change", "spread", "bound", "verdict")
	for _, name := range names {
		for _, m := range bs.EndToEnd {
			o, spread, ok := side(olds, name, m.Name)
			n, _, ok2 := side(news, name, m.Name)
			if !ok || !ok2 || o == 0 {
				continue
			}
			change := (n - o) / o
			loss := change
			if m.Better == "higher" {
				loss = -change
			}
			verdict := "unchanged"
			switch {
			case spread > m.Bound:
				verdict = "unresolved"
			case loss > m.Bound:
				verdict, worse = "worse", true
			case loss < -m.Bound:
				verdict = "improved"
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %+7.1f%% %6.1f%% %5.0f%%  %s\n",
				name, m.Name, o, n, 100*change, 100*spread, 100*m.Bound, verdict)
		}
	}
	return worse, nil
}

// side returns a metric's value (the median across reports, or a single
// report's value) and the spread behind it: the interquartile range across
// reports, or across a single report's rounds, as a share of the value.
func side(reps []*report, workload, name string) (med, spread float64, ok bool) {
	var vs []float64
	var last stat
	for _, r := range reps {
		if wr, found := r.Workloads[workload]; found {
			if st, found := wr.EndToEnd[name]; found {
				vs = append(vs, st.Value)
				last = st
			}
		}
	}
	q1, med, q3 := quartiles(vs)
	if len(vs) == 1 {
		q1, med, q3 = last.Q1, last.Value, last.Q3
	}
	if med != 0 {
		spread = (q3 - q1) / med
	}
	return med, spread, len(vs) > 0
}

func readReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		r := &report{}
		if err := json.Unmarshal(b, r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Schema != reportSchema {
			return nil, fmt.Errorf("%s: schema %q, want %q", p, r.Schema, reportSchema)
		}
		out = append(out, r)
	}
	return out, nil
}
