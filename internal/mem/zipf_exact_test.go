package mem

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/big"
	"testing"

	"astriflash/internal/sim"
)

// scrambleRef is the textbook scramble, (r*key mod n + off) mod n, in
// arbitrary precision so it holds for every n.
func scrambleRef(rank, key, off, n uint64) uint64 {
	bn := new(big.Int).SetUint64(n)
	x := new(big.Int).SetUint64(rank % n)
	x.Mul(x, new(big.Int).SetUint64(key))
	x.Mod(x, bn)
	x.Add(x, new(big.Int).SetUint64(off))
	return x.Mod(x, bn).Uint64()
}

// scrambleDomains are the domain sizes where a reduction is most likely
// to be off by one: the smallest domains and the edges of 2^31 and 2^32,
// the largest domain the 64-bit product path serves.
var scrambleDomains = []uint64{1, 2, 3, 1<<31 - 1, 1 << 31, 1<<31 + 1, 1<<32 - 1, 1 << 32}

// FuzzZipfScramble checks scramble against the reference reduction.
// nSel picks a listed domain, or else nRaw is the domain: reduced below
// 2^32 when nSel is even, used as is (capped at 2^63) when odd, which
// reaches the long-division path. Each input checks rank r, rank n-1 and
// a rank at or past n.
func FuzzZipfScramble(f *testing.F) {
	for i, n := range scrambleDomains {
		f.Add(uint8(i), uint64(0), uint64(0), uint64(0), uint64(0))
		f.Add(uint8(i), uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
		f.Add(uint8(i), uint64(0), uint64(1<<32-2), uint64(1<<31), uint64(12345))
		// key = n-1 and rank = n-1: the largest product, (n-1)^2.
		f.Add(uint8(i), uint64(0), n-2, n-1, n-1)
	}
	f.Add(uint8(100), uint64(1000003), uint64(7), uint64(999), uint64(1<<40))
	f.Add(uint8(101), uint64(1)<<40+7, uint64(1)<<39, uint64(3), uint64(1)<<41)
	f.Add(uint8(101), ^uint64(0), ^uint64(0), ^uint64(0), ^uint64(0))
	f.Fuzz(func(t *testing.T, nSel uint8, nRaw, key, off, r uint64) {
		var n uint64
		switch {
		case int(nSel) < len(scrambleDomains):
			n = scrambleDomains[nSel]
		case nSel%2 == 0:
			n = nRaw%(1<<32) + 1
		default:
			n = nRaw%(1<<63) + 1
		}
		z := NewZipf(sim.NewRNG(nRaw), n, 0.5)
		// Any key in [1, n] and offset in [0, n): the reduction must be
		// exact whether or not key is coprime with n.
		z.scrambleKey = key%n + 1
		z.scrambleOff = off % n
		for _, rank := range []uint64{r % n, n - 1, r} {
			got := z.scramble(rank)
			want := scrambleRef(rank, z.scrambleKey, z.scrambleOff, n)
			if got != want {
				t.Fatalf("n=%d key=%d off=%d rank=%d: scramble = %d, want %d",
					n, z.scrambleKey, z.scrambleOff, rank, got, want)
			}
		}
	})
}

// rankPow is the rank formula rankOf must reproduce bit for bit: the
// floor of n*Pow(b, alpha), clamped below n.
func rankPow(z *Zipf, u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	r := uint64(float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// checkRankNear checks rankOf against rankPow at u and at its ulp
// neighbours inside [0, 1).
func checkRankNear(t *testing.T, z *Zipf, u float64) {
	t.Helper()
	for _, v := range []float64{math.Nextafter(u, 0), u, math.Nextafter(u, 1)} {
		if v < 0 || v >= 1 {
			continue
		}
		if got, want := z.rankOf(v), rankPow(z, v); got != want {
			t.Fatalf("n=%d theta=%v u=%v (%#x): rank = %d, Pow form = %d",
				z.n, z.theta, v, math.Float64bits(v), got, want)
		}
	}
}

// FuzzZipfRank checks rankOf against the Pow form for arbitrary domains,
// skews and uniforms. thetaRaw's fraction is the skew (0 becomes 0.99);
// u is uRaw read as float bits when uRaw is below the bits of 1.0, else
// uRaw's top 53 bits as sim.RNG.Float64 draws them.
func FuzzZipfRank(f *testing.F) {
	seeds := []struct {
		n     uint64
		theta float64
	}{
		{7864, 0.99}, {262144, 0.99}, {1 << 24, 0.99}, {1 << 32, 0.99},
		{1<<40 + 15, 0.99}, {3, 0.5}, {1 << 20, 0.9}, {90_001, 0.999},
		{1000, 0.7}, {^uint64(0), 0.3}, {2, 1e-9},
	}
	for _, s := range seeds {
		f.Add(s.n, s.theta, uint64(0))
		f.Add(s.n, s.theta, uint64(0x3fe0000000000000)) // 0.5
		f.Add(s.n, s.theta, ^uint64(0))
		f.Add(s.n, s.theta, uint64(0xfedcba9876543210))
	}
	f.Fuzz(func(t *testing.T, n uint64, thetaRaw float64, uRaw uint64) {
		if n == 0 {
			n = 1
		}
		_, theta := math.Modf(math.Abs(thetaRaw))
		if !(theta > 0 && theta < 1) {
			theta = 0.99
		}
		u := float64(uRaw>>11) / (1 << 53)
		if uRaw < math.Float64bits(1) {
			u = math.Float64frombits(uRaw)
		}
		z := NewZipf(sim.NewRNG(uRaw), n, theta)
		checkRankNear(t, z, u)
	})
}

// rankThreshold returns the smallest float64 u in [0, 1) whose Pow-form
// rank is at least r, by bisection on u's bits (non-negative floats
// order as their bits do).
func rankThreshold(z *Zipf, r uint64) float64 {
	lo, hi := uint64(0), math.Float64bits(math.Nextafter(1, 0))
	for lo < hi {
		mid := lo + (hi-lo)/2
		if rankPow(z, math.Float64frombits(mid)) >= r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return math.Float64frombits(lo)
}

// TestZipfRankAtThresholds checks rankOf at the u where the Pow form
// steps to each of the first 64 ranks past 1, and at its ulp
// neighbours. There n*b^alpha lies within a few ulps of an integer, so
// the fast path must defer to Pow; a guard too small, or an estimate
// that is not close enough to Pow, returns the other integer here.
func TestZipfRankAtThresholds(t *testing.T) {
	cases := []struct {
		n     uint64
		theta float64
	}{
		{7864, 0.99}, {262144, 0.99}, {1<<40 + 15, 0.99},
		{1 << 20, 0.5}, {1 << 20, 0.9}, {1000, 0.7}, {90_001, 0.999},
	}
	for _, c := range cases {
		z := NewZipf(sim.NewRNG(1), c.n, c.theta)
		deferred := 0
		for r := uint64(2); r < 66 && r < c.n; r++ {
			u := rankThreshold(z, r)
			if rankPow(z, u) != r {
				continue // the Pow form skips rank r
			}
			x := float64(z.n) * math.Pow(z.eta*u-z.eta+1, z.alpha)
			if x-float64(r) <= x*z.guard {
				deferred++
			}
			checkRankNear(t, z, u)
		}
		if deferred == 0 {
			t.Errorf("n=%d theta=%v: no threshold fell inside the guard", c.n, c.theta)
		}
	}
}

// drawHash hashes the first count draws of next with FNV-64a.
func drawHash(count int, next func() uint64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < count; i++ {
		binary.LittleEndian.PutUint64(b[:], next())
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestDrawsMatchParent pins the first 200k draws of HotCold mixtures at
// three skews, and of a Zipf over a domain past 2^32 (the long-division
// scramble path). The hashes were recorded before Rank hoisted its
// constant Pow and scramble dropped its divisions; any change to a draw
// moves them, and with them every simulated result.
func TestDrawsMatchParent(t *testing.T) {
	const draws = 200000
	cases := []struct {
		name string
		next func() uint64
		want uint64
	}{
		{"hotcold-0.5", NewHotCold(sim.NewRNG(11), 1<<20, 1<<15, 0.97, 0.5).Next, 0x47285a1fcf7cfb4d},
		{"hotcold-0.9", NewHotCold(sim.NewRNG(12), 1<<20, 1<<15, 0.97, 0.9).Next, 0x46709b50372606a5},
		{"hotcold-0.99", NewHotCold(sim.NewRNG(13), 3_000_017, 90_001, 0.97, 0.99).Next, 0x4fbd1c0b36c4e883},
		{"zipf-2^40", NewZipf(sim.NewRNG(14), 1<<40+15, 0.99).Next, 0xba812c534e862c10},
	}
	for _, c := range cases {
		if got := drawHash(draws, c.next); got != c.want {
			t.Errorf("%s: draw hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

var drawSink uint64

// BenchmarkZipfNext measures one scrambled Zipf draw over a 1M-item
// domain at the skew the workloads use.
func BenchmarkZipfNext(b *testing.B) {
	z := NewZipf(sim.NewRNG(1), 1<<20, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink += z.Next()
	}
}

// BenchmarkHotColdNext measures one draw from the mixture every workload
// samples: a 3% hot set taking 97% of draws.
func BenchmarkHotColdNext(b *testing.B) {
	h := NewHotCold(sim.NewRNG(1), 1<<20, 1<<20*3/100, 0.97, 0.99)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		drawSink += h.Next()
	}
}
