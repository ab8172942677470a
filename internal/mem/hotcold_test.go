package mem

import (
	"testing"
	"testing/quick"

	"astriflash/internal/sim"
)

func TestHotColdConcentration(t *testing.T) {
	rng := sim.NewRNG(1)
	h := NewHotCold(rng, 100000, 1000, 0.97, 0.99)
	if h.n != 100000 || h.hotN != 1000 {
		t.Fatalf("geometry: N=%d hot=%d", h.n, h.hotN)
	}
	hot := 0
	const draws = 200000
	for i := 0; i < draws; i++ {
		if h.Next() < h.hotN {
			hot++
		}
	}
	frac := float64(hot) / draws
	if frac < 0.96 || frac > 0.98 {
		t.Fatalf("hot share = %.3f, want ~0.97", frac)
	}
}

func TestHotColdDomain(t *testing.T) {
	if err := quick.Check(func(seed uint64, n16, hot16 uint16) bool {
		n := uint64(n16%5000) + 2
		hotN := uint64(hot16)%n + 1
		h := NewHotCold(sim.NewRNG(seed), n, hotN, 0.9, 0.8)
		for i := 0; i < 50; i++ {
			if h.Next() >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHotColdHotItemsAreLowIndices(t *testing.T) {
	h := NewHotCold(sim.NewRNG(2), 1000, 30, 0.95, 0.9)
	for i := uint64(0); i < 30; i++ {
		if i >= h.hotN {
			t.Fatalf("index %d should be hot", i)
		}
	}
	for i := uint64(30); i < 1000; i += 100 {
		if i < h.hotN {
			t.Fatalf("index %d should be cold", i)
		}
	}
}

func TestHotColdColdDrawsUniform(t *testing.T) {
	h := NewHotCold(sim.NewRNG(3), 10000, 100, 0.5, 0.9)
	// Cold draws must land in [100, 10000) and spread widely.
	buckets := map[uint64]int{}
	for i := 0; i < 100000; i++ {
		v := h.Next()
		if v >= 100 {
			buckets[v/1000]++
		}
	}
	if len(buckets) < 9 {
		t.Fatalf("cold draws clustered into %d of 10 buckets", len(buckets))
	}
}

func TestHotColdClamps(t *testing.T) {
	// hotN = 0 clamps to 1; hotN >= n clamps to n-1.
	h := NewHotCold(sim.NewRNG(4), 100, 0, 0.9, 0.9)
	if h.hotN != 1 {
		t.Fatalf("hotN=0 clamped to %d, want 1", h.hotN)
	}
	h = NewHotCold(sim.NewRNG(4), 100, 500, 0.9, 0.9)
	if h.hotN != 99 {
		t.Fatalf("hotN>n clamped to %d, want 99", h.hotN)
	}
}

func TestHotColdInvalidParamsPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"tiny-domain": func() { NewHotCold(sim.NewRNG(1), 1, 1, 0.9, 0.9) },
		"prob-zero":   func() { NewHotCold(sim.NewRNG(1), 10, 2, 0, 0.9) },
		"prob-one":    func() { NewHotCold(sim.NewRNG(1), 10, 2, 1, 0.9) },
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestHotColdDeterministic(t *testing.T) {
	a := NewHotCold(sim.NewRNG(7), 1000, 30, 0.95, 0.9)
	b := NewHotCold(sim.NewRNG(7), 1000, 30, 0.95, 0.9)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatal("same seed diverged")
		}
	}
}

func TestHotColdZipfWithinHotSet(t *testing.T) {
	// Within the hot set, draws are Zipf-skewed: some hot item must be
	// drawn far more often than the hot-set average.
	h := NewHotCold(sim.NewRNG(8), 10000, 100, 0.99, 0.99)
	counts := map[uint64]int{}
	const draws = 100000
	for i := 0; i < draws; i++ {
		v := h.Next()
		if v < h.hotN {
			counts[v]++
		}
	}
	maxCount := 0
	for _, c := range counts {
		if c > maxCount {
			maxCount = c
		}
	}
	avg := draws * 99 / 100 / 100
	if maxCount < 3*avg {
		t.Fatalf("hottest item drawn %d times vs average %d; no intra-hot skew", maxCount, avg)
	}
}
