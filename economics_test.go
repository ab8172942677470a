package astriflash

import (
	"reflect"
	"testing"

	"astriflash/internal/econ"
)

// econTestConfig is a small, fast sizing for admission property tests:
// each point simulates a few milliseconds of a 2-core machine.
func econTestConfig() ExpConfig {
	return ExpConfig{
		Cores:        2,
		DatasetBytes: 8 << 20,
		Inflight:     48,
		WarmupNs:     2_000_000,
		MeasureNs:    6_000_000,
		Seed:         0xa57f,
	}
}

// econTestMetrics runs one economics-grid machine with the given
// admission policy and threshold at the reference operating point
// (enterprise TLC, 3% DRAM).
func econTestMetrics(t *testing.T, policy string, threshold int) Metrics {
	t.Helper()
	cfg := econTestConfig()
	o := econOptions(cfg, econ.EnterpriseTLC(), 0.03, policy)
	o.AdmissionThreshold = threshold
	m, err := cfg.machine(point{seed: 1, opts: o})
	if err != nil {
		t.Fatal(err)
	}
	return m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
}

// TestAdmitAllBitIdentity is the admission layer's compatibility
// contract: the explicit "admit-all" policy and an unset policy must
// produce bit-identical metrics, because admit-all maps to a nil policy
// and every admission branch in the cache is guarded on it. A filtered
// policy on the same seed must differ — the knob has to do something.
func TestAdmitAllBitIdentity(t *testing.T) {
	unset := econTestMetrics(t, "", 0)
	admitAll := econTestMetrics(t, "admit-all", 0)
	if !reflect.DeepEqual(unset, admitAll) {
		t.Fatalf("admit-all diverged from unset policy:\nunset:     %+v\nadmit-all: %+v", unset, admitAll)
	}
	filtered := econTestMetrics(t, "hit-economics", 0)
	if reflect.DeepEqual(unset, filtered) {
		t.Fatalf("hit-economics produced identical metrics to admit-all; the policy is not wired in")
	}
}

// TestWriteThresholdMonotone tightens the write-threshold bar through 1,
// 2, 4 and 8 and checks the two properties that held on every seed
// probed (0xa57f and 1 to 5): the filter diverts no fewer fetches to the
// bypass ring as the bar rises, and flash writes fall from bar 2 to 4 to
// 8. Writes from bar 1 to bar 2 are not checked: at that step the
// stricter bar changes which pages stay resident, and so what later
// misses and is written back, by more than it diverts (writes rose there
// on 3 of the 12 seed and tie-order series probed, such as 174 to 188
// pages on seed 3).
func TestWriteThresholdMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four simulation points")
	}
	var prev Metrics
	for _, bar := range []int{1, 2, 4, 8} {
		m := econTestMetrics(t, "write-threshold", bar)
		if m.Jobs == 0 {
			t.Fatalf("threshold %d: no jobs completed", bar)
		}
		if bar > 1 && m.AdmissionBypassed < prev.AdmissionBypassed {
			t.Errorf("bypassed fetches fell from %d to %d as the threshold tightened to %d",
				prev.AdmissionBypassed, m.AdmissionBypassed, bar)
		}
		if bar > 2 && m.FlashWrites >= prev.FlashWrites {
			t.Errorf("flash writes went from %d to %d as the threshold tightened to %d, want a fall",
				prev.FlashWrites, m.FlashWrites, bar)
		}
		prev = m
	}
}

// TestHitEconomicsSavesWrites is the sweep's headline admission claim at
// the reference operating point (enterprise TLC, 3% DRAM): the
// hit-economics policy must cut flash writes per op versus admit-all
// while keeping at least 95% of its goodput.
func TestHitEconomicsSavesWrites(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two simulation points")
	}
	all := econTestMetrics(t, "admit-all", 0)
	he := econTestMetrics(t, "hit-economics", 0)
	if all.Jobs == 0 || he.Jobs == 0 {
		t.Fatalf("no progress: admit-all %d jobs, hit-economics %d jobs", all.Jobs, he.Jobs)
	}
	allWr := float64(all.FlashWrites) / float64(all.Jobs)
	heWr := float64(he.FlashWrites) / float64(he.Jobs)
	if heWr >= allWr {
		t.Errorf("hit-economics wrote %.4f pages/op vs admit-all's %.4f; expected a reduction", heWr, allWr)
	}
	if ratio := he.ThroughputJPS / all.ThroughputJPS; ratio < 0.95 {
		t.Errorf("hit-economics goodput ratio %.3f, want >= 0.95", ratio)
	}
}

// TestEconomicsSweepDeterministic renders the full sweep at 1 and 8
// workers and requires byte-identical output: every point's seed derives
// from the point index alone, and each point runs its own
// single-threaded engine.
func TestEconomicsSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the economics grid twice")
	}
	if raceEnabled {
		t.Skip("numeric determinism check only; slow under the race detector")
	}
	cfg := econTestConfig()
	cfg.MeasureNs = 2_000_000
	cfg.Workers = 1
	seq, err := EconomicsSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	par, err := EconomicsSweep(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, b := RenderEconomics(seq), RenderEconomics(par)
	if a != b {
		t.Fatalf("economics render differs between 1 and 8 workers:\n--- workers=1\n%s\n--- workers=8\n%s", a, b)
	}
}
