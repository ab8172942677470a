package astriflash

import (
	"reflect"
	"testing"
)

// TestFaultsSweepShape checks the graceful-degradation contract on a small
// grid: the architectural throughput ordering survives every injected
// fault rate, tail latency never improves as the RBER grows, and the
// fault-path counters are live where the fault model predicts activity.
func TestFaultsSweepShape(t *testing.T) {
	cfg := detExp()
	// Uncorrectables at 4e-3 hit ~0.2% of reads; a longer window makes the
	// counter assertions deterministic rather than borderline.
	cfg.MeasureNs *= 4
	rbers := []float64{0, 1e-3, 3e-3, 4e-3}
	pts, err := FaultsSweep(cfg, "tatp", rbers)
	if err != nil {
		t.Fatal(err)
	}
	nm := len(FaultModes)
	if len(pts) != len(rbers)*nm {
		t.Fatalf("got %d points, want %d", len(pts), len(rbers)*nm)
	}

	at := func(ri, mi int) FaultsPoint { return pts[ri*nm+mi] }
	for ri, rber := range rbers {
		// FaultModes order is DRAM-only, AstriFlash, OS-Swap, Flash-Sync;
		// throughput must be non-increasing along it at every fault rate.
		for mi := 1; mi < nm; mi++ {
			prev, cur := at(ri, mi-1), at(ri, mi)
			if cur.Metrics.ThroughputJPS > prev.Metrics.ThroughputJPS {
				t.Errorf("rber=%g: %s throughput %.0f exceeds %s %.0f — ordering broken",
					rber, cur.Mode, cur.Metrics.ThroughputJPS, prev.Mode, prev.Metrics.ThroughputJPS)
			}
		}
	}

	// The device-level read tail is monotone (non-decreasing) in RBER for
	// every flash-backed mode: each configuration replays the same
	// workload stream across the RBER axis, and faults only add device
	// latency (retry steps plus the queueing they induce).
	for mi := 1; mi < nm; mi++ {
		for ri := 1; ri < len(rbers); ri++ {
			lo, hi := at(ri-1, mi), at(ri, mi)
			if hi.Metrics.P99FlashReadNs < lo.Metrics.P99FlashReadNs {
				t.Errorf("%s: p99 flash read fell from %d to %d between rber=%g and %g",
					hi.Mode, lo.Metrics.P99FlashReadNs, hi.Metrics.P99FlashReadNs, rbers[ri-1], rbers[ri])
			}
		}
	}

	// End-to-end p99 is monotone for the flash-wait-dominated modes
	// (AstriFlash, Flash-Sync). OS-Swap is deliberately excluded: its tail
	// is set by VM-lock convoys, and fault jitter that decorrelates read
	// completions can break a convoy up, lowering the end-to-end tail even
	// though every individual read got slower.
	for _, mi := range []int{1, 3} {
		for ri := 1; ri < len(rbers); ri++ {
			lo, hi := at(ri-1, mi), at(ri, mi)
			if hi.Metrics.P99ServiceNs < lo.Metrics.P99ServiceNs {
				t.Errorf("%s: p99 fell from %d to %d between rber=%g and %g",
					hi.Mode, lo.Metrics.P99ServiceNs, hi.Metrics.P99ServiceNs, rbers[ri-1], rbers[ri])
			}
		}
	}

	// Fault counters: at 3e-3 (~98 expected raw errors vs 64-bit ECC) the
	// ladder engages on most reads; at 4e-3 a visible fraction of reads
	// defeats it, so uncorrectables, remaps, and BC retries are live
	// across the flash-backed modes.
	if at(2, 1).Metrics.FlashRetriedReads == 0 {
		t.Error("no retried reads at rber=3e-3 on AstriFlash")
	}
	var uncorr, remaps, bcRetries uint64
	for mi := 1; mi < nm; mi++ { // skip DRAM-only, which never reads flash
		m := at(3, mi).Metrics // rber=4e-3
		uncorr += m.FlashUncorrectables
		remaps += m.FlashRemapMoves
		bcRetries += m.BCRetries
	}
	if uncorr == 0 {
		t.Error("no uncorrectable reads at rber=4e-3 in any flash-backed mode")
	}
	if remaps == 0 {
		t.Error("no remapped pages at rber=4e-3 in any flash-backed mode")
	}
	if bcRetries == 0 {
		t.Error("no BC retries at rber=4e-3 in any flash-backed mode")
	}

	// Fault-free rows carry no fault artifacts.
	for mi := 0; mi < nm; mi++ {
		m := at(0, mi).Metrics
		if m.FlashRetriedReads+m.FlashUncorrectables+m.FlashRemapMoves+m.BCRetries != 0 {
			t.Errorf("rber=0 %s: fault counters nonzero", m.Mode)
		}
	}
}

// TestFaultsRBERZeroMatchesFaultFreeRun guards the bit-identity contract:
// a sweep cell at RBER=0 (with the BC watchdog armed) must reproduce a
// plain run with fault injection absent from the options entirely.
func TestFaultsRBERZeroMatchesFaultFreeRun(t *testing.T) {
	cfg := detExp()
	const mi = 1 // AstriFlash
	plain, err := cfg.machine(point{seed: mi, opts: cfg.options(AstriFlash, "tatp")})
	if err != nil {
		t.Fatal(err)
	}
	want := plain.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)

	pts, err := FaultsSweep(cfg, "tatp", []float64{0})
	if err != nil {
		t.Fatal(err)
	}
	got := pts[mi].Metrics
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("RBER=0 sweep cell diverged from fault-free run:\n got %+v\nwant %+v", got, want)
	}
}

// TestFlashRetryAttribution checks the new latency bucket: fault-induced
// read time lands in flash-retry, and fault-free runs never charge it.
func TestFlashRetryAttribution(t *testing.T) {
	cfg := detExp()
	run := func(rber float64) map[string]int64 {
		o := cfg.options(AstriFlash, "tatp")
		o.RBER = rber
		m, err := NewMachine(o)
		if err != nil {
			t.Fatal(err)
		}
		m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
		out := map[string]int64{}
		for _, b := range m.LatencyBreakdown() {
			out[b.Bucket] = b.Ns
		}
		return out
	}
	if ns := run(0)["flash-retry"]; ns != 0 {
		t.Fatalf("fault-free run charged %d ns to flash-retry", ns)
	}
	faulty := run(4e-3)
	if faulty["flash-retry"] == 0 {
		t.Fatal("rber=4e-3 run charged nothing to flash-retry")
	}
	if faulty["flash-retry"] > faulty["flash-wait"] {
		t.Fatalf("flash-retry %d exceeds the flash-wait %d it is a slice of",
			faulty["flash-retry"], faulty["flash-wait"])
	}
}
