package flash

import (
	"errors"
	"testing"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// faultyConfig returns the small test geometry with fault injection on.
func faultyConfig(rber, peFail float64, seed uint64) Config {
	c := smallConfig()
	c.RBER = rber
	c.PEFailProb = peFail
	c.Seed = seed
	return c
}

func TestFaultsOffCountersStayZero(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	rng := sim.NewRNG(7)
	for i := 0; i < 500; i++ {
		lpn := mem.PageNum(rng.Intn(64))
		if rng.Float64() < 0.5 {
			d.Write(lpn, func(int64) {})
		} else {
			d.Read(lpn, func(int64) {})
		}
		eng.Run()
	}
	if d.RetriedReads.Value() != 0 || d.Uncorrectables.Value() != 0 ||
		d.RecoveredReads.Value() != 0 || d.BadBlocks.Value() != 0 || d.RemapMoves.Value() != 0 {
		t.Fatalf("fault counters nonzero on fault-free device: retried=%d uncorr=%d recovered=%d bad=%d remap=%d",
			d.RetriedReads.Value(), d.Uncorrectables.Value(), d.RecoveredReads.Value(),
			d.BadBlocks.Value(), d.RemapMoves.Value())
	}
}

func TestReadRetryLadderEngagesAndAddsLatency(t *testing.T) {
	// RBER 2e-3 puts the expected raw error count (~66 bits) just past the
	// 64-bit ECC strength: roughly half the reads need at least one ladder
	// step, and essentially none defeat the whole ladder.
	eng := sim.NewEngine()
	d := NewDevice(eng, faultyConfig(2e-3, 0, 11))
	var faulty []int64
	for i := 0; i < 400; i++ {
		d.Read(mem.PageNum(i%64), func(at int64) { faulty = append(faulty, at) })
		eng.Run()
	}
	if d.RetriedReads.Value() == 0 {
		t.Fatal("no reads engaged the retry ladder at RBER=2e-3")
	}
	if d.RetryStepsTot.Value() < d.RetriedReads.Value() {
		t.Fatalf("step total %d below retried-read count %d", d.RetryStepsTot.Value(), d.RetriedReads.Value())
	}

	engOK := sim.NewEngine()
	clean := NewDevice(engOK, smallConfig())
	var nominal []int64
	for i := 0; i < 400; i++ {
		clean.Read(mem.PageNum(i%64), func(at int64) { nominal = append(nominal, at) })
		engOK.Run()
	}
	var sumF, sumN int64
	for i := range faulty {
		sumF += faulty[i]
		sumN += nominal[i]
	}
	if sumF <= sumN {
		t.Fatalf("retry ladder added no latency: faulty total %d <= nominal total %d", sumF, sumN)
	}
}

func TestUncorrectableReadSurfacesErrorAndRemaps(t *testing.T) {
	// RBER 0.5 floods every page with raw errors: each ladder step fails
	// with probability 1 (to float64 precision), so every ReadPage is
	// deterministically uncorrectable.
	eng := sim.NewEngine()
	cfg := faultyConfig(0.5, 0, 5)
	d := NewDevice(eng, cfg)
	res := d.ReadPage(3)
	if !errors.Is(res.Err, ErrUncorrectable) {
		t.Fatalf("want ErrUncorrectable, got %v", res.Err)
	}
	if res.Retries != d.cfg.ReadRetrySteps {
		t.Fatalf("uncorrectable read reported %d retries, want full ladder %d", res.Retries, d.cfg.ReadRetrySteps)
	}
	// The error surfaces when the final ladder step fails: no channel
	// transfer happened.
	wantAt := d.cfg.ReadLatency + int64(d.cfg.ReadRetrySteps)*d.cfg.ReadRetryLatency
	if res.At != wantAt {
		t.Fatalf("uncorrectable settled at %d, want %d", res.At, wantAt)
	}
	if d.Uncorrectables.Value() != 1 {
		t.Fatalf("uncorrectable counter = %d, want 1", d.Uncorrectables.Value())
	}
	if d.RemapMoves.Value() == 0 {
		t.Fatal("uncorrectable read did not remap the page")
	}
	if _, ok := d.ftl[3]; !ok {
		t.Fatal("remapped LPN has no FTL entry")
	}
	if msg := d.CheckFTLInvariants(); msg != "" {
		t.Fatalf("invariants after remap: %s", msg)
	}
}

func TestReadNeverFailsViaRecovery(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, faultyConfig(0.5, 0, 5))
	done := int64(0)
	d.Read(9, func(at int64) { done = at })
	eng.Run()
	if done == 0 {
		t.Fatal("Read with uncorrectable cells never completed")
	}
	if d.RecoveredReads.Value() != 1 {
		t.Fatalf("recovered-read counter = %d, want 1", d.RecoveredReads.Value())
	}
	// The recovered completion pays the full ladder, then reconstruction.
	min := d.cfg.ReadLatency + int64(d.cfg.ReadRetrySteps)*d.cfg.ReadRetryLatency + d.cfg.RecoveryLatency
	if done < min {
		t.Fatalf("recovered read completed at %d, below floor %d", done, min)
	}
}

func TestRetryHookObservesLadderAndRecovery(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, faultyConfig(0.5, 0, 5))
	var hookNs int64
	d.RetryHook = func(ns int64) { hookNs += ns }
	d.Read(2, func(int64) {})
	eng.Run()
	want := int64(d.cfg.ReadRetrySteps)*d.cfg.ReadRetryLatency + d.cfg.RecoveryLatency
	if hookNs != want {
		t.Fatalf("RetryHook observed %d ns, want %d", hookNs, want)
	}
}

// TestFTLInvariantsUnderFaultChurn is the property test: across seeds, a
// write/read mix with bad-block retirement and uncorrectable remapping
// running hot must leave the FTL a bijection on live pages with no live
// page on a bad block.
func TestFTLInvariantsUnderFaultChurn(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		eng := sim.NewEngine()
		cfg := faultyConfig(3e-3, 0.01, seed)
		cfg.BlocksPerPlane = 32
		d := NewDevice(eng, cfg)
		rng := sim.NewRNG(seed * 977)
		for i := 0; i < 3000; i++ {
			lpn := mem.PageNum(rng.Intn(256))
			if rng.Float64() < 0.5 {
				d.Write(lpn, func(int64) {})
			} else {
				d.Read(lpn, func(int64) {})
			}
			eng.Run()
			if i%500 == 0 {
				if msg := d.CheckFTLInvariants(); msg != "" {
					t.Fatalf("seed %d op %d: %s", seed, i, msg)
				}
			}
		}
		if msg := d.CheckFTLInvariants(); msg != "" {
			t.Fatalf("seed %d final: %s", seed, msg)
		}
		if d.BadBlocks.Value() == 0 {
			t.Fatalf("seed %d: no blocks retired at PEFailProb=0.01 over 3000 ops", seed)
		}
		if d.RemapMoves.Value() == 0 {
			t.Fatalf("seed %d: no pages remapped", seed)
		}
		if d.WriteAmplification() <= 1 {
			t.Fatalf("seed %d: write amplification %v not above 1 despite remaps", seed, d.WriteAmplification())
		}
	}
}

func TestFaultInjectionDeterministic(t *testing.T) {
	run := func() ([]int64, uint64, uint64) {
		eng := sim.NewEngine()
		d := NewDevice(eng, faultyConfig(3e-3, 0.01, 42))
		rng := sim.NewRNG(99)
		var out []int64
		for i := 0; i < 800; i++ {
			lpn := mem.PageNum(rng.Intn(128))
			if rng.Float64() < 0.4 {
				d.Write(lpn, func(at int64) { out = append(out, at) })
			} else {
				d.Read(lpn, func(at int64) { out = append(out, at) })
			}
			eng.Run()
		}
		return out, d.RetriedReads.Value(), d.BadBlocks.Value()
	}
	a, ra, ba := run()
	b, rb, bb := run()
	if len(a) != len(b) || ra != rb || ba != bb {
		t.Fatalf("fault-injected runs diverged: %d/%d events, retried %d/%d, bad %d/%d",
			len(a), len(b), ra, rb, ba, bb)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d diverged: %d vs %d", i, a[i], b[i])
		}
	}
}
