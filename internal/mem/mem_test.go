package mem

import (
	"math"
	"testing"
	"testing/quick"

	"astriflash/internal/sim"
)

func TestPageGeometry(t *testing.T) {
	if PageSize != 4096 || BlockSize != 64 {
		t.Fatalf("geometry: page=%d block=%d", PageSize, BlockSize)
	}
	a := Addr(0x12345)
	if PageOf(a) != 0x12 {
		t.Fatalf("PageOf = %#x, want 0x12", PageOf(a))
	}
	if PageBase(0x12) != 0x12000 {
		t.Fatalf("PageBase = %#x", PageBase(0x12))
	}
	if pageOffset(a) != 0x345 {
		t.Fatalf("page offset = %#x", pageOffset(a))
	}
	if BlockOf(a) != 0x12345>>6 {
		t.Fatalf("BlockOf = %#x", BlockOf(a))
	}
}

// pageOffset returns the offset of a within its page.
func pageOffset(a Addr) uint64 { return uint64(a) & (PageSize - 1) }

func TestPageRoundTrip(t *testing.T) {
	if err := quick.Check(func(raw uint64) bool {
		a := Addr(raw)
		return PageBase(PageOf(a))+Addr(pageOffset(a)) == a
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPagesForBytes(t *testing.T) {
	cases := []struct{ in, want uint64 }{
		{0, 0}, {1, 1}, {4096, 1}, {4097, 2}, {8192, 2},
	}
	for _, c := range cases {
		if got := PagesForBytes(c.in); got != c.want {
			t.Fatalf("PagesForBytes(%d) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestAccessPage(t *testing.T) {
	acc := Access{Addr: 0x5123, Write: true}
	if acc.Page() != 5 {
		t.Fatalf("Page = %d, want 5", acc.Page())
	}
}

func TestZipfSkewConcentratesMass(t *testing.T) {
	rng := sim.NewRNG(1)
	const n = 100000
	z := NewZipf(rng, n, 0.99)
	counts := make(map[uint64]int)
	const draws = 300000
	for i := 0; i < draws; i++ {
		counts[z.Rank()]++
	}
	// The hottest 1% of ranks must absorb well over half the draws at
	// theta=0.99 (analytically ~2/3 for this n).
	var hot int
	for r, c := range counts {
		if r < n/100 {
			hot += c
		}
	}
	frac := float64(hot) / draws
	if frac < 0.55 {
		t.Fatalf("hottest 1%% absorbed %.3f of draws, want > 0.55", frac)
	}
}

func TestZipfRankZeroIsHottest(t *testing.T) {
	rng := sim.NewRNG(2)
	z := NewZipf(rng, 1000, 0.9)
	counts := make([]int, 1000)
	for i := 0; i < 200000; i++ {
		counts[z.Rank()]++
	}
	if counts[0] < counts[10] || counts[0] < counts[100] {
		t.Fatalf("rank 0 (%d) should dominate rank 10 (%d) and 100 (%d)",
			counts[0], counts[10], counts[100])
	}
}

func TestZipfDomain(t *testing.T) {
	if err := quick.Check(func(seed uint64, n16 uint16) bool {
		n := uint64(n16%5000) + 1
		z := NewZipf(sim.NewRNG(seed), n, 0.8)
		for i := 0; i < 50; i++ {
			if z.Next() >= n {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestZipfScrambleIsBijection(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 64, 1000, 4099} {
		z := NewZipf(sim.NewRNG(99), n, 0.5)
		seen := make(map[uint64]bool, n)
		for r := uint64(0); r < n; r++ {
			p := z.scramble(r)
			if p >= n || seen[p] {
				t.Fatalf("n=%d: scramble not a bijection at rank %d", n, r)
			}
			seen[p] = true
		}
	}
}

func TestZipfInvalidParams(t *testing.T) {
	for _, f := range []func(){
		func() { NewZipf(sim.NewRNG(1), 0, 0.9) },
		func() { NewZipf(sim.NewRNG(1), 10, 0) },
		func() { NewZipf(sim.NewRNG(1), 10, 1) },
		func() { NewZipf(sim.NewRNG(1), 10, 1.5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid Zipf params did not panic")
				}
			}()
			f()
		}()
	}
}

// hotSetFraction estimates the fraction of z's draws that fall within
// the hottest frac*N items, by the ratio of generalized harmonic numbers:
// how much of the request stream a DRAM cache of that relative capacity
// can absorb (paper Figure 1).
func hotSetFraction(z *Zipf, frac float64) float64 {
	k := uint64(frac * float64(z.n))
	if k == 0 {
		return 0
	}
	if k >= z.n {
		return 1
	}
	return zetaApprox(k, z.theta) / z.zetan
}

// TestZipfHotSetFraction checks the sampler's ranks against the analytic
// hot-set fraction.
func TestZipfHotSetFraction(t *testing.T) {
	z := NewZipf(sim.NewRNG(3), 1000000, 0.99)
	// Must be increasing in the fraction, 0 at 0, 1 at 1.
	if hotSetFraction(z, 0) != 0 {
		t.Fatal("hotSetFraction(0) != 0")
	}
	if hotSetFraction(z, 1) != 1 {
		t.Fatal("hotSetFraction(1) != 1")
	}
	f3 := hotSetFraction(z, 0.03)
	f10 := hotSetFraction(z, 0.10)
	if !(f3 > 0.5 && f10 > f3 && f10 < 1) {
		t.Fatalf("hot-set fractions: 3%%=%v 10%%=%v", f3, f10)
	}
	// Empirical check: measured hit fraction of hottest 3% of ranks
	// should match the analytical value within a few percent.
	var hits, total int
	for i := 0; i < 300000; i++ {
		if z.Rank() < 30000 {
			hits++
		}
		total++
	}
	emp := float64(hits) / float64(total)
	if math.Abs(emp-f3) > 0.05 {
		t.Fatalf("empirical 3%% hot fraction %v vs analytical %v", emp, f3)
	}
}

func TestZetaApproxMatchesExact(t *testing.T) {
	for _, n := range []uint64{1, 10, 63, 64, 100, 1000} {
		exact := 0.0
		for i := uint64(1); i <= n; i++ {
			exact += 1 / math.Pow(float64(i), 0.99)
		}
		approx := zetaApprox(n, 0.99)
		if math.Abs(exact-approx)/exact > 0.01 {
			t.Fatalf("n=%d: zetaApprox=%v exact=%v", n, approx, exact)
		}
	}
}

func TestArenaAllocation(t *testing.T) {
	a := NewArena(0x10000, 3*PageSize)
	p1 := a.Alloc(100, 8)
	p2 := a.Alloc(100, 8)
	if p1 == p2 {
		t.Fatal("allocations overlap")
	}
	if p2 < p1+100 {
		t.Fatalf("second allocation %v inside first at %v", p2, p1)
	}
	if used := a.next - a.base; used < 200 {
		t.Fatalf("used = %d, want >= 200", used)
	}
	pg := a.AllocPage()
	if pageOffset(pg) != 0 {
		t.Fatalf("AllocPage not page-aligned: %v", pg)
	}
}

func TestArenaAlignment(t *testing.T) {
	a := NewArena(0, PageSize)
	a.Alloc(1, 1)
	p := a.Alloc(8, 64)
	if uint64(p)%64 != 0 {
		t.Fatalf("allocation not 64-byte aligned: %v", p)
	}
}

func TestArenaExhaustionPanics(t *testing.T) {
	a := NewArena(0, 128)
	defer func() {
		if recover() == nil {
			t.Fatal("arena exhaustion did not panic")
		}
	}()
	a.Alloc(256, 8)
}

func TestArenaBadAlignmentPanics(t *testing.T) {
	a := NewArena(0, 4096)
	defer func() {
		if recover() == nil {
			t.Fatal("non-power-of-two alignment did not panic")
		}
	}()
	a.Alloc(8, 3)
}

func TestArenaPages(t *testing.T) {
	a := NewArena(0, 10*PageSize)
	if a.Pages() != 10 {
		t.Fatalf("Pages = %d, want 10", a.Pages())
	}
	a.Alloc(PageSize+1, 8)
	if used := PagesForBytes(uint64(a.next - a.base)); used != 2 {
		t.Fatalf("pages used = %d, want 2", used)
	}
}
