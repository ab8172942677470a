// Package queueing implements the analytical queueing models behind the
// paper's Figure 3: M/M/1 for systems whose requests run to completion on
// the physical server (DRAM-only, Flash-Sync) and M/M/k for systems that
// free the server during flash waits (AstriFlash, OS-Swap), where k logical
// servers overlap the flash accesses on one physical core.
package queueing

import (
	"errors"
	"math"
)

// ErrUnstable is returned when the offered load meets or exceeds capacity.
var ErrUnstable = errors.New("queueing: utilization >= 1, system unstable")

// MM1 is a single-server Markovian queue with arrival rate Lambda and
// service rate Mu (both in events per nanosecond, or any consistent unit).
type MM1 struct {
	Lambda float64
	Mu     float64
}

// Utilization returns rho = lambda/mu.
func (q MM1) Utilization() float64 { return q.Lambda / q.Mu }

// MeanResponse returns the mean sojourn time 1/(mu-lambda).
func (q MM1) MeanResponse() (float64, error) {
	if q.Lambda >= q.Mu {
		return 0, ErrUnstable
	}
	return 1 / (q.Mu - q.Lambda), nil
}

// ResponsePercentile returns the p-th percentile (0<p<100) of the sojourn
// time, which for M/M/1 is exponential with rate mu-lambda.
func (q MM1) ResponsePercentile(p float64) (float64, error) {
	if q.Lambda >= q.Mu {
		return 0, ErrUnstable
	}
	return -math.Log(1-p/100) / (q.Mu - q.Lambda), nil
}

// MMK is a k-server Markovian queue: arrival rate Lambda, per-server
// service rate Mu, K servers.
type MMK struct {
	Lambda float64
	Mu     float64
	K      int
}

// Utilization returns rho = lambda/(k*mu).
func (q MMK) Utilization() float64 { return q.Lambda / (float64(q.K) * q.Mu) }

// ErlangC returns the probability that an arriving request must wait
// (all K servers busy), the Erlang-C formula.
func (q MMK) ErlangC() (float64, error) {
	k := q.K
	a := q.Lambda / q.Mu // offered load in Erlangs
	rho := a / float64(k)
	if rho >= 1 {
		return 0, ErrUnstable
	}
	// Compute the Erlang-B recurrence, then convert to Erlang C. The
	// recurrence is numerically stable for large k, unlike the factorial
	// form.
	b := 1.0
	for i := 1; i <= k; i++ {
		b = a * b / (float64(i) + a*b)
	}
	c := b / (1 - rho*(1-b))
	return c, nil
}

// ResponseCCDF returns P(R > t) where R = Wq + S, S ~ Exp(Mu),
// using the closed-form convolution of the M/M/k waiting time with an
// exponential service time.
func (q MMK) ResponseCCDF(t float64) (float64, error) {
	c, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	mu := q.Mu
	theta := float64(q.K)*mu - q.Lambda
	if t <= 0 {
		return 1, nil
	}
	if math.Abs(mu-theta) < 1e-15*mu {
		// Degenerate case theta == mu: the convolution integral gives a
		// t*e^{-mu t} term instead of the difference of exponentials.
		return (1-c)*math.Exp(-mu*t) + c*math.Exp(-mu*t)*(1+mu*t), nil
	}
	et, em := math.Exp(-theta*t), math.Exp(-mu*t)
	return (1-c)*em + c*theta/(mu-theta)*(et-em) + c*et, nil
}

// ResponsePercentile numerically inverts ResponseCCDF for the p-th
// percentile (0 < p < 100) by bisection.
func (q MMK) ResponsePercentile(p float64) (float64, error) {
	if _, err := q.ErlangC(); err != nil {
		return 0, err
	}
	target := 1 - p/100
	lo, hi := 0.0, 1/q.Mu
	// Grow hi until the tail probability falls below the target.
	for i := 0; i < 200; i++ {
		ccdf, _ := q.ResponseCCDF(hi)
		if ccdf < target {
			break
		}
		hi *= 2
	}
	for i := 0; i < 100; i++ {
		mid := (lo + hi) / 2
		ccdf, _ := q.ResponseCCDF(mid)
		if ccdf > target {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2, nil
}

// MeanResponse returns E[R] = C/(k*mu-lambda) + 1/mu.
func (q MMK) MeanResponse() (float64, error) {
	c, err := q.ErlangC()
	if err != nil {
		return 0, err
	}
	return c/(float64(q.K)*q.Mu-q.Lambda) + 1/q.Mu, nil
}
