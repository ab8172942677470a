package sim

import (
	"math"
	"math/bits"
)

// RNG is a small, fast, deterministic pseudo-random generator
// (xoshiro256** by Blackman and Vigna). Every stochastic component in the
// simulator draws from an RNG derived from the experiment seed, so runs
// are reproducible and components can be re-seeded independently without
// perturbing one another.
type RNG struct {
	s [4]uint64
}

// NewRNG returns a generator seeded from seed via splitmix64, which
// guarantees a well-mixed nonzero state for any seed including zero.
func NewRNG(seed uint64) *RNG {
	r := &RNG{}
	sm := seed
	next := func() uint64 {
		sm += 0x9e3779b97f4a7c15
		z := sm
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.s {
		r.s[i] = next()
	}
	return r
}

// Split derives an independent generator from this one. The child's stream
// does not overlap the parent's for practical purposes.
func (r *RNG) Split() *RNG { return NewRNG(r.Uint64()) }

func rotl(x uint64, k uint) uint64 { return (x << k) | (x >> (64 - k)) }

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Exp returns an exponentially distributed value with the given mean.
// It is used for Poisson inter-arrival times and service-time jitter.
func (r *RNG) Exp(mean float64) float64 {
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return -mean * math.Log(u)
}

// charPoly is the characteristic polynomial of xoshiro256's state
// transition, a linear map over GF(2): bit i of word i/64 is the
// coefficient of x^i, and x^256 is implicit. Skip reduces powers of x
// modulo it; TestRNGCharPoly pins it against the generator's reference
// jump polynomials.
var charPoly = gf2Poly{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// gf2Poly is a polynomial over GF(2) of degree below 256, one bit per
// coefficient as in charPoly.
type gf2Poly [4]uint64

// timesX returns p*x mod charPoly.
func (p gf2Poly) timesX() gf2Poly {
	carry := p[3] >> 63
	p[3] = p[3]<<1 | p[2]>>63
	p[2] = p[2]<<1 | p[1]>>63
	p[1] = p[1]<<1 | p[0]>>63
	p[0] <<= 1
	if carry != 0 {
		for i := range p {
			p[i] ^= charPoly[i]
		}
	}
	return p
}

// times returns p*q mod charPoly, by Horner's rule over q's bits from
// the top.
func (p gf2Poly) times(q gf2Poly) gf2Poly {
	var r gf2Poly
	for i := 255; i >= 0; i-- {
		r = r.timesX()
		if q[i/64]>>(i%64)&1 != 0 {
			for j := range r {
				r[j] ^= p[j]
			}
		}
	}
	return r
}

// xPow returns x^n mod charPoly by square-and-multiply.
func xPow(n uint64) gf2Poly {
	r := gf2Poly{1}
	for i := bits.Len64(n) - 1; i >= 0; i-- {
		r = r.times(r)
		if n>>i&1 != 0 {
			r = r.timesX()
		}
	}
	return r
}

// Skip advances the generator exactly as n calls of Uint64 would, in
// O(log n) polynomial products and 256 steps. The state update is a
// linear map M, so n steps are M^n = c(M) with c = x^n mod charPoly; the
// fold below is the reference jump() with c for its constants (Blackman
// and Vigna, "Scrambled Linear Pseudorandom Number Generators", ACM TOMS
// 2021).
func (r *RNG) Skip(n uint64) {
	var s [4]uint64
	for _, w := range xPow(n) {
		for b := range 64 {
			if w>>b&1 != 0 {
				for i := range s {
					s[i] ^= r.s[i]
				}
			}
			r.Uint64()
		}
	}
	r.s = s
}
