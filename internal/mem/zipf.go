package mem

import (
	"math"
	"math/bits"

	"astriflash/internal/sim"
)

// Zipf draws ranks from a Zipfian distribution over [0, N). Datacenter
// object popularity is heavily skewed (paper Section II-A), and all
// workloads use this generator (Section V-A: "we model data accesses with
// an analytical Zipfian distribution").
//
// The implementation is the Gray et al. "quick Zipf" method: ranks are
// produced in O(1) per draw after an O(1) setup, using the closed-form
// approximation of the generalized harmonic numbers. Rank 0 is the most
// popular item. A fixed random permutation seed decouples popularity rank
// from address-space position so that hot pages are scattered, as they
// are in real heaps.
type Zipf struct {
	n     uint64
	theta float64
	alpha float64
	zetan float64
	eta   float64
	zeta2 float64
	// rank1 is 1 + 0.5^theta: draws with u*zetan below it are rank 1.
	rank1 float64
	// sq, when nonzero, is alpha rounded to the integer exponent the fast
	// rank raises b to by repeated squaring; 0 selects Exp(alpha*Log b).
	sq uint64
	// guard is the relative distance from every integer an estimate of
	// n*b^alpha must keep for its floor to be Pow's (rankOf).
	guard float64
	rng   *sim.RNG
	// scramble mixes rank into position so popular items are not
	// physically adjacent.
	scrambleKey uint64
	scrambleOff uint64
}

// NewZipf returns a Zipfian generator over [0, n) with skew theta in
// (0, 1). theta ~= 0.99 matches YCSB-style datacenter skew; lower values
// flatten the distribution. It panics for invalid parameters.
func NewZipf(rng *sim.RNG, n uint64, theta float64) *Zipf {
	if n == 0 {
		panic("mem: Zipf over empty domain")
	}
	if theta <= 0 || theta >= 1 {
		panic("mem: Zipf theta must be in (0,1)")
	}
	z := &Zipf{n: n, theta: theta, rng: rng}
	// Pick a multiplier coprime with n so the scramble is a bijection.
	for {
		k := rng.Uint64()%n + 1
		if gcd(k, n) == 1 {
			z.scrambleKey = k
			break
		}
	}
	z.scrambleOff = rng.Uint64() % n
	z.zeta2 = zetaApprox(2, theta)
	z.zetan = zetaApprox(n, theta)
	z.alpha = 1 / (1 - theta)
	// Split alpha as math.Pow splits its exponent: Pow evaluates
	// b^yi by repeated squaring times Exp(yf*Log b), with |yf| <= 0.5.
	// When |yf| is below 2^-40, b^yi alone is as close to Pow as the
	// guard needs (DESIGN.md §10).
	yi, yf := math.Modf(z.alpha)
	if yf > 0.5 {
		yf--
		yi++
	}
	if math.Abs(yf) < 0x1p-40 && yi < 1<<20 {
		z.sq = uint64(yi)
	}
	// Rounding in repeated squaring grows with the exponent, in Pow and
	// in the estimate alike, so past alpha = 128 the guard grows too.
	z.guard = max(0x1p-40, z.alpha*0x1p-47)
	z.rank1 = 1 + math.Pow(0.5, theta)
	z.eta = (1 - math.Pow(2/float64(n), 1-theta)) / (1 - z.zeta2/z.zetan)
	return z
}

// zetaApprox approximates the generalized harmonic number
// H_{n,theta} = sum_{i=1..n} 1/i^theta using the Euler–Maclaurin
// integral form, exact enough for sampling purposes at any n.
func zetaApprox(n uint64, theta float64) float64 {
	if n < 64 {
		var s float64
		for i := uint64(1); i <= n; i++ {
			s += 1 / math.Pow(float64(i), theta)
		}
		return s
	}
	// Sum the first 63 terms exactly, integrate the remainder.
	var s float64
	for i := uint64(1); i < 64; i++ {
		s += 1 / math.Pow(float64(i), theta)
	}
	a, b := 64.0, float64(n)
	s += (math.Pow(b, 1-theta) - math.Pow(a, 1-theta)) / (1 - theta)
	s += 0.5 / math.Pow(a, theta)
	return s
}

// Rank draws a popularity rank in [0, n); 0 is hottest.
func (z *Zipf) Rank() uint64 { return z.rankOf(z.rng.Float64()) }

// rankOf maps a uniform u in [0, 1) to its rank: the floor of
// n*b^alpha with b = eta*u - eta + 1, clamped below n. math.Pow costs
// about 110 ns at alpha = 100 (a non-integral exponent takes its slow
// path), so rankOf first estimates the product without it, by repeated
// squaring or by Exp and Log. At alpha = 100 the estimate and Pow
// differ by less than 4e-14 relative, about alpha*2^-53 in general.
// When the estimate is farther than guard (relative) from every integer
// and below n, Pow's product lies strictly between the same two
// integers and floors the same, so the estimate's floor is returned.
// Otherwise, and for b <= 0, the Pow form decides.
func (z *Zipf) rankOf(u float64) uint64 {
	uz := u * z.zetan
	if uz < 1 {
		return 0
	}
	if uz < z.rank1 {
		return 1
	}
	b := z.eta*u - z.eta + 1
	if b > 0 {
		var p float64
		if z.sq != 0 {
			p = 1
			x := b
			for i := z.sq; ; {
				if i&1 != 0 {
					p *= x
				}
				if i >>= 1; i == 0 {
					break
				}
				x *= x
			}
		} else {
			p = math.Exp(z.alpha * math.Log(b))
		}
		x := float64(z.n) * p
		if x < float64(z.n) {
			r := uint64(x)
			f := float64(r)
			if g := x * z.guard; x-f > g && f+1-x > g {
				return r
			}
		}
	}
	r := uint64(float64(z.n) * math.Pow(b, z.alpha))
	if r >= z.n {
		r = z.n - 1
	}
	return r
}

// Next draws a scrambled item index in [0, n): Zipfian in popularity but
// uniformly scattered in position.
func (z *Zipf) Next() uint64 {
	return z.scramble(z.Rank())
}

// scramble maps rank to position with an affine bijection modulo n:
// pos = (rank*key + off) mod n with gcd(key, n) == 1, so every rank maps
// to a unique position and consecutive hot ranks land far apart.
func (z *Zipf) scramble(rank uint64) uint64 {
	n := z.n
	r := rank
	if r >= n {
		r %= n
	}
	var x uint64
	if n <= 1<<32 {
		// Product fits in 64 bits; this is the hot path for all
		// practical domains (<= 4G pages).
		x = r * z.scrambleKey % n
	} else {
		// r < n and key <= n, so the high word is below n and Div64
		// cannot overflow.
		hi, lo := bits.Mul64(r, z.scrambleKey)
		_, x = bits.Div64(hi, lo, n)
	}
	// Both terms are residues, so one subtract reduces their sum (exact
	// for n <= 2^63, where the sum cannot wrap).
	x += z.scrambleOff
	if x >= n {
		x -= n
	}
	return x
}

// gcd returns the greatest common divisor of a and b.
func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
