// Package overload implements admission control for open-loop traffic:
// the decision, made at arrival time, of whether a request enters the
// system or is shed. A closed-loop driver can never offer more work than
// the system absorbs; an open-loop source can, and past the knee an
// uncontrolled queue grows without bound — every admitted request then
// waits behind it, so the served tail diverges while goodput collapses
// into work that finishes after anyone cares. The controllers here trade
// a counted drop at the front door for a bounded queue behind it: None is
// the baseline that admits everything, Static caps in-system concurrency,
// and CoDel sheds adaptively when queueing delay sits above a target for
// a sustained interval, following the CoDel control law (drop spacing
// shrinking with the square root of the drop count) so shedding ramps to
// whatever rate holds the queue at its target.
package overload

import (
	"fmt"
	"math"

	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

// QueueState is the system snapshot a controller sees at each arrival.
type QueueState struct {
	// InSystem is the number of admitted, not-yet-completed requests.
	InSystem int
	// Queued is the number of admitted requests still waiting for their
	// first dispatch onto a core.
	Queued int
}

// Controller decides the fate of each arrival. Implementations must be
// deterministic: the same call sequence yields the same decisions.
type Controller interface {
	// Name labels the controller in reports.
	Name() string
	// Admit is called once per arrival; false sheds the request.
	Admit(now sim.Time, st QueueState) bool
	// ObserveStart is called when an admitted request reaches the head
	// of the queue — whether it then runs or is dropped expired — with
	// its queueing delay (arrival to first dispatch), the sojourn signal
	// adaptive controllers feed on. Expired drops must be observed too:
	// they carry the longest sojourns, and a controller fed only
	// survivors' delays reads deep overload as improvement.
	ObserveStart(now sim.Time, queueDelayNs int64)
}

// None admits everything: the baseline whose tail diverges past the knee.
type None struct{}

// Name implements Controller.
func (None) Name() string { return "none" }

// Admit implements Controller: always true.
func (None) Admit(sim.Time, QueueState) bool { return true }

// ObserveStart implements Controller: ignored.
func (None) ObserveStart(sim.Time, int64) {}

// Static is a fixed concurrency limit: arrivals beyond Limit in-system
// requests are shed. Simple and robust, but the right limit depends on
// the service time, so a static choice is either lax under slow requests
// or throttling under fast ones.
type Static struct {
	Limit int
	// Sheds counts rejected arrivals.
	Sheds stats.Counter
}

// NewStatic returns a concurrency-limit controller.
func NewStatic(limit int) *Static {
	if limit < 1 {
		panic(fmt.Sprintf("overload: static limit %d must be positive", limit))
	}
	return &Static{Limit: limit}
}

// Name implements Controller.
func (s *Static) Name() string { return fmt.Sprintf("static(%d)", s.Limit) }

// Admit implements Controller.
func (s *Static) Admit(_ sim.Time, st QueueState) bool {
	if st.InSystem >= s.Limit {
		s.Sheds.Inc()
		return false
	}
	return true
}

// ObserveStart implements Controller: ignored.
func (s *Static) ObserveStart(sim.Time, int64) {}

// CoDel is an adaptive admission controller built on the CoDel control
// law, applied at the front door instead of the dequeue point: the
// queueing-delay sojourn is observed as requests start service; once it
// has stayed at or above Target for a full Interval, the controller
// enters a shedding episode and drops arrivals at instants spaced
// Interval/sqrt(count) apart, so the shed rate grows until the queue
// drains back under Target. Three refinements adapt the law to admission
// control, where overload can be 50% of offered traffic rather than a
// few percent: while the sojourn sits far above target (>= 2x) the drop
// count doubles per shed instead of incrementing — an exponential attack
// that reaches gross-overload shed rates in a few intervals instead of
// hundreds; a new episode resumes near the previous one's drop rate (the
// standard CoDel re-entry rule), so sustained overload converges instead
// of sawtoothing from scratch; and an episode only exits after the delay
// holds below target for half an interval, so shedding pushes
// utilization under capacity rather than parking it at 1 with the tail
// several targets above the promise.
type CoDel struct {
	// TargetNs is the acceptable standing queueing delay.
	TargetNs int64
	// IntervalNs is how long delay must sit above target before shedding
	// starts, and the base spacing of the drop schedule.
	IntervalNs int64

	// firstAbove is when the current above-target excursion will have
	// lasted a full interval (0 = delay currently below target).
	firstAbove sim.Time
	// shedding marks an active episode; dropNext schedules its next shed.
	shedding  bool
	dropNext  sim.Time
	count     int
	lastCount int
	// firstBelow is the earliest time the active episode may exit (set
	// when delay first dips under target; 0 = currently above).
	firstBelow sim.Time
	// lastEpisodeEnd is when the previous episode exited; an excursion
	// starting within one interval of it re-arms immediately.
	lastEpisodeEnd sim.Time
	// lastDelay is the most recent sojourn observation.
	lastDelay int64

	// Sheds counts dropped arrivals; Episodes counts shedding episodes.
	Sheds    stats.Counter
	Episodes stats.Counter
}

// NewCoDel returns an adaptive controller with the given delay target and
// observation interval (both ns).
func NewCoDel(targetNs, intervalNs int64) *CoDel {
	if targetNs <= 0 || intervalNs <= 0 {
		panic(fmt.Sprintf("overload: CoDel target %d / interval %d must be positive", targetNs, intervalNs))
	}
	return &CoDel{TargetNs: targetNs, IntervalNs: intervalNs}
}

// Name implements Controller.
func (c *CoDel) Name() string { return "codel" }

// ObserveStart implements Controller: folds one sojourn sample into the
// above/below-target state machine.
func (c *CoDel) ObserveStart(now sim.Time, queueDelayNs int64) {
	c.lastDelay = queueDelayNs
	if queueDelayNs < c.TargetNs {
		c.firstAbove = 0
		if c.shedding {
			// Exit hysteresis: a single below-target observation is one
			// lucky dequeue, not a drained queue. Exiting on it parks the
			// equilibrium at utilization ~1 — min sojourn at target, p99
			// sojourn several times it — so the served tail sits well
			// above what the target promises. Requiring delay to hold
			// below target for a full interval lets the episode push
			// utilization under capacity before shedding stops.
			if c.firstBelow == 0 {
				c.firstBelow = now + sim.Time(c.IntervalNs)
			}
			if now >= c.firstBelow {
				c.shedding = false
				c.lastCount = c.count
				c.lastEpisodeEnd = now
				c.firstBelow = 0
			}
		}
		return
	}
	c.firstBelow = 0
	if c.firstAbove == 0 {
		if now < c.lastEpisodeEnd+sim.Time(c.IntervalNs) {
			// Delay popped back above target within an interval of the
			// last episode: the overload never really ended, so resume
			// shedding now instead of waiting out the filter again — a
			// full-interval re-entry lag admits excess-rate x interval
			// unshed arrivals per oscillation and that backlog lands on
			// the served tail.
			c.firstAbove = now
		} else {
			c.firstAbove = now + sim.Time(c.IntervalNs)
		}
	}
}

// Admit implements Controller: sheds on the episode's drop schedule while
// the sojourn has been above target for a sustained interval.
func (c *CoDel) Admit(now sim.Time, st QueueState) bool {
	if st.Queued == 0 {
		// An empty queue is direct evidence the overload has passed, so
		// decay the episode memory. During sustained overload the queue
		// never empties and the drop rate carries over intact; during
		// recovery nearly every arrival lands on an empty queue and a
		// transient episode's count (a cold-start burst can drive it
		// enormous) dies geometrically instead of haunting re-entries.
		c.lastCount /= 2
		return true
	}
	if c.firstAbove == 0 || now < c.firstAbove {
		return true
	}
	if !c.shedding {
		c.shedding = true
		c.firstBelow = 0
		c.Episodes.Inc()
		// Re-enter near the previous episode's drop rate so sustained
		// overload converges; decay it so isolated bursts start gently.
		c.count = c.lastCount / 2
		if c.count < 1 {
			c.count = 1
		}
		c.dropNext = now
	}
	if now < c.dropNext {
		return true
	}
	c.count++
	if c.lastDelay >= c.TargetNs && c.count < 1<<24 {
		// Still at or above target: the sqrt law alone would take
		// hundreds of intervals to reach a 30-50% shed rate; double
		// instead, and back off the moment an observation lands under
		// target.
		c.count *= 2
	}
	c.dropNext = now + sim.Time(float64(c.IntervalNs)/math.Sqrt(float64(c.count)))
	c.Sheds.Inc()
	return false
}
