package mem

import (
	"encoding/binary"
	"hash/fnv"
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
