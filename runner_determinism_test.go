package astriflash

import (
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"
)

// detExp is a deliberately small sweep config so the determinism matrix
// (every sweep twice) stays fast.
func detExp() ExpConfig {
	cfg := DefaultExpConfig()
	cfg.Cores = 2
	cfg.DatasetBytes = 8 << 20
	cfg.Inflight = 16
	cfg.WarmupNs = 2_000_000
	cfg.MeasureNs = 4_000_000
	return cfg
}

// goldenSweeps holds every matrix sweep's workers=1 render, one section
// per sweep in name order. Regenerate it after an intentional change with:
// go test -run TestSweepsIdenticalAcrossWorkerCounts -update
const goldenSweeps = "testdata/golden.sweeps.txt"

// detSweeps renders each sweep of the determinism matrix on a reduced
// point list, in name order.
var detSweeps = []struct {
	name   string
	render func(cfg ExpConfig) (string, error)
}{
	{"anatomy", func(cfg ExpConfig) (string, error) {
		rows, err := Anatomy(cfg, "tatp", nil)
		if err != nil {
			return "", err
		}
		return RenderAnatomy(rows), nil
	}},
	{"economics", func(cfg ExpConfig) (string, error) {
		rep, err := economicsSweep(cfg, []float64{0.01, 0.03}, []string{"admit-all", "hit-economics"})
		if err != nil {
			return "", err
		}
		return RenderEconomics(rep), nil
	}},
	{"faults", func(cfg ExpConfig) (string, error) {
		pts, err := FaultsSweep(cfg, "tatp", []float64{0, 3e-3})
		if err != nil {
			return "", err
		}
		return RenderFaults(pts), nil
	}},
	{"fig1", func(cfg ExpConfig) (string, error) {
		pts, err := Fig1MissRatioSweep(cfg, "arrayswap", []float64{0.01, 0.03})
		if err != nil {
			return "", err
		}
		return RenderFig1(pts), nil
	}},
	{"fig10", func(cfg ExpConfig) (string, error) {
		// The grid points depend on a baseline run that precedes them.
		curves, err := Fig10TailLatency(cfg, []float64{0.3, 0.7})
		if err != nil {
			return "", err
		}
		return RenderFig10(curves), nil
	}},
	{"fig2", func(cfg ExpConfig) (string, error) {
		pts, err := Fig2PagingScaling(cfg, "tatp", []int{2, 4})
		if err != nil {
			return "", err
		}
		return RenderFig2(pts), nil
	}},
	{"fig9", func(cfg ExpConfig) (string, error) {
		rows, err := Fig9Throughput(cfg, []string{"tatp"})
		if err != nil {
			return "", err
		}
		return RenderFig9(rows), nil
	}},
	{"gc", func(cfg ExpConfig) (string, error) {
		pts, err := GCOverheadSweep(cfg, "arrayswap")
		if err != nil {
			return "", err
		}
		return RenderGC(pts), nil
	}},
	{"table2", func(cfg ExpConfig) (string, error) {
		rows, err := Table2ServiceLatency(cfg, "tatp")
		if err != nil {
			return "", err
		}
		return RenderTable2(rows), nil
	}},
}

// readGoldenSweeps splits the golden file into its per-sweep sections.
func readGoldenSweeps(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenSweeps)
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]string{}
	for _, sec := range strings.Split(string(data), "== ")[1:] {
		name, body, _ := strings.Cut(sec, " ==\n")
		sections[name] = body
	}
	return sections
}

// TestSweepsIdenticalAcrossWorkerCounts guards the runner's seed-derivation
// contract: a sweep's rendered output must be byte-identical whether its
// points run sequentially or fanned across a pool. Each sweep is rendered
// under workers=1 and workers=8 and compared as strings, and the workers=1
// render is compared with the committed golden file, so a point that
// moves to another seed index fails here too.
func TestSweepsIdenticalAcrossWorkerCounts(t *testing.T) {
	golden := readGoldenSweeps(t)
	var mu sync.Mutex
	if *updateGolden {
		// Sweeps that -run filters out keep their sections.
		t.Cleanup(func() {
			if t.Failed() {
				return
			}
			var b strings.Builder
			for _, s := range detSweeps {
				fmt.Fprintf(&b, "== %s ==\n%s", s.name, golden[s.name])
			}
			if err := os.WriteFile(goldenSweeps, []byte(b.String()), 0o644); err != nil {
				t.Error(err)
			}
		})
	}
	for _, s := range detSweeps {
		t.Run(s.name, func(t *testing.T) {
			t.Parallel()
			seq := detExp()
			seq.Workers = 1
			par := detExp()
			par.Workers = 8
			a, err := s.render(seq)
			if err != nil {
				t.Fatal(err)
			}
			b, err := s.render(par)
			if err != nil {
				t.Fatal(err)
			}
			if a != b {
				t.Fatalf("workers=1 and workers=8 diverged:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", a, b)
			}
			if *updateGolden {
				mu.Lock()
				golden[s.name] = a
				mu.Unlock()
				return
			}
			if want, ok := golden[s.name]; !ok {
				t.Fatalf("%s has no section in %s", s.name, goldenSweeps)
			} else if a != want {
				t.Fatalf("render differs from %s:\n--- got ---\n%s\n--- want ---\n%s", goldenSweeps, a, want)
			}
		})
	}
}
