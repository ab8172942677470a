package loadgen

// Open-loop arrival shapes beyond plain Poisson. Production traffic is not
// a constant-rate memoryless stream: request rates burst on short
// timescales (modeled here as a two-state MMPP), drift over long ones (a
// diurnal rate curve), and occasionally step far past provisioned capacity
// (a flash crowd). All three processes are stationary in distribution over
// their stated parameters, consume only their own RNG stream, and emit
// gaps the same way Poisson does, so every driver that accepts an Arrivals
// works unchanged. Time-varying shapes track their own virtual clock: the
// sum of gaps they have emitted since construction.

import (
	"fmt"
	"math"

	"astriflash/internal/sim"
)

// MMPP is a two-state Markov-modulated Poisson process: a burst state
// arriving at (1+Burstiness)x the overall mean rate and a calm state at
// (1-Burstiness)x, with exponentially distributed dwell times in each.
// Equal mean dwells keep the long-run average rate equal to 1/meanGapNs,
// so MMPP sweeps are comparable to Poisson sweeps at the same offered
// load while exercising far deeper transient queues.
type MMPP struct {
	rng   *sim.RNG
	gap   [2]float64 // mean inter-arrival per state, ns
	dwell float64    // mean state dwell, ns
	state int
	// untilSwitch is virtual time remaining in the current state.
	untilSwitch float64
}

// CheckMMPP reports why NewMMPP would reject its parameters, or nil.
func CheckMMPP(meanGapNs, burstiness, meanDwellNs float64) error {
	switch {
	case meanGapNs <= 0:
		return fmt.Errorf("loadgen: MMPP mean gap %v must be positive", meanGapNs)
	case burstiness < 0 || burstiness >= 1:
		return fmt.Errorf("loadgen: MMPP burstiness %v out of [0,1)", burstiness)
	case meanDwellNs <= 0:
		return fmt.Errorf("loadgen: MMPP dwell %v must be positive", meanDwellNs)
	}
	return nil
}

// NewMMPP returns a bursty on/off process with overall mean inter-arrival
// meanGapNs. burstiness in [0,1) sets the rate split between the states;
// meanDwellNs is the mean sojourn in each state.
func NewMMPP(rng *sim.RNG, meanGapNs, burstiness, meanDwellNs float64) *MMPP {
	if err := CheckMMPP(meanGapNs, burstiness, meanDwellNs); err != nil {
		panic(err)
	}
	rate := 1 / meanGapNs
	m := &MMPP{rng: rng, dwell: meanDwellNs}
	m.gap[0] = 1 / (rate * (1 + burstiness)) // burst state
	m.gap[1] = 1 / (rate * (1 - burstiness)) // calm state
	m.untilSwitch = rng.Exp(meanDwellNs)
	return m
}

// NextGap draws the next inter-arrival gap, crossing state boundaries as
// needed. Exponential memorylessness makes redrawing at a boundary exact.
func (m *MMPP) NextGap() int64 {
	total := 0.0
	for {
		draw := m.rng.Exp(m.gap[m.state])
		if draw <= m.untilSwitch {
			m.untilSwitch -= draw
			total += draw
			return clampGap(total)
		}
		total += m.untilSwitch
		m.state = 1 - m.state
		m.untilSwitch = m.rng.Exp(m.dwell)
	}
}

// Diurnal is a non-homogeneous Poisson process whose rate follows a
// sinusoidal day curve: rate(t) = base x (1 + Amplitude x sin(2 pi t /
// Period)). The long-run average rate is 1/meanGapNs. Gaps are generated
// by Lewis-Shedler thinning against the peak rate, which is exact for any
// bounded rate function.
type Diurnal struct {
	rng       *sim.RNG
	baseRate  float64 // arrivals per ns at the curve's mean
	amplitude float64
	period    float64
	now       float64 // virtual elapsed ns
}

// CheckDiurnal reports why NewDiurnal would reject its parameters, or nil.
func CheckDiurnal(meanGapNs, amplitude, periodNs float64) error {
	switch {
	case meanGapNs <= 0:
		return fmt.Errorf("loadgen: diurnal mean gap %v must be positive", meanGapNs)
	case amplitude < 0 || amplitude >= 1:
		return fmt.Errorf("loadgen: diurnal amplitude %v out of [0,1)", amplitude)
	case periodNs <= 0:
		return fmt.Errorf("loadgen: diurnal period %v must be positive", periodNs)
	}
	return nil
}

// NewDiurnal returns a sinusoidally modulated process with overall mean
// inter-arrival meanGapNs, relative amplitude in [0,1), and the given
// period (the "day" length, scaled into simulated time).
func NewDiurnal(rng *sim.RNG, meanGapNs, amplitude, periodNs float64) *Diurnal {
	if err := CheckDiurnal(meanGapNs, amplitude, periodNs); err != nil {
		panic(err)
	}
	return &Diurnal{rng: rng, baseRate: 1 / meanGapNs, amplitude: amplitude, period: periodNs}
}

// NextGap thins candidate arrivals drawn at the peak rate.
func (d *Diurnal) NextGap() int64 {
	peak := d.baseRate * (1 + d.amplitude)
	total := 0.0
	for {
		total += d.rng.Exp(1 / peak)
		t := d.now + total
		rate := d.baseRate * (1 + d.amplitude*math.Sin(2*math.Pi*t/d.period))
		if d.rng.Float64()*peak <= rate {
			d.now = t
			return clampGap(total)
		}
	}
}

// FlashCrowd is a piecewise-constant-rate Poisson process: a baseline rate
// of 1/meanGapNs, multiplied by Surge over the window [StartNs,
// StartNs+DurationNs) — the sudden step past provisioned capacity that
// admission control exists to survive.
type FlashCrowd struct {
	rng      *sim.RNG
	baseGap  float64
	surge    float64
	start    float64
	duration float64
	now      float64 // virtual elapsed ns
}

// CheckFlashCrowd reports why NewFlashCrowd would reject its parameters,
// or nil.
func CheckFlashCrowd(meanGapNs, surge, startNs, durationNs float64) error {
	switch {
	case meanGapNs <= 0:
		return fmt.Errorf("loadgen: flash-crowd mean gap %v must be positive", meanGapNs)
	case surge <= 0:
		return fmt.Errorf("loadgen: flash-crowd surge %v must be positive", surge)
	case startNs < 0 || durationNs <= 0:
		return fmt.Errorf("loadgen: flash-crowd window [%v,+%v) invalid", startNs, durationNs)
	}
	return nil
}

// NewFlashCrowd returns a stepped process: baseline mean gap meanGapNs,
// rate multiplied by surge (> 0) from startNs for durationNs.
func NewFlashCrowd(rng *sim.RNG, meanGapNs, surge float64, startNs, durationNs float64) *FlashCrowd {
	if err := CheckFlashCrowd(meanGapNs, surge, startNs, durationNs); err != nil {
		panic(err)
	}
	return &FlashCrowd{rng: rng, baseGap: meanGapNs, surge: surge, start: startNs, duration: durationNs}
}

// rateAt returns the instantaneous rate and the end of the current
// constant-rate segment (math.Inf(1) for the final segment).
func (f *FlashCrowd) rateAt(t float64) (rate, segEnd float64) {
	switch {
	case t < f.start:
		return 1 / f.baseGap, f.start
	case t < f.start+f.duration:
		return f.surge / f.baseGap, f.start + f.duration
	default:
		return 1 / f.baseGap, math.Inf(1)
	}
}

// NextGap draws within the current segment, redrawing across segment
// boundaries (exact, by memorylessness).
func (f *FlashCrowd) NextGap() int64 {
	total := 0.0
	for {
		t := f.now + total
		rate, segEnd := f.rateAt(t)
		draw := f.rng.Exp(1 / rate)
		if t+draw <= segEnd {
			total += draw
			f.now += total
			return clampGap(total)
		}
		total = segEnd - f.now
	}
}

// clampGap converts a float gap to the at-least-1ns integer gap every
// Arrivals implementation must emit so simulated time always advances.
func clampGap(g float64) int64 {
	n := int64(g)
	if n < 1 {
		n = 1
	}
	return n
}
