// Package sim provides a deterministic discrete-event simulation engine.
//
// All AstriFlash components (cores, controllers, devices, schedulers) share
// one Engine. Time is measured in integer nanoseconds. Events fire in
// (at, seq) order: by time, and events scheduled for the same instant in
// scheduling order, so a run is bit-reproducible given a fixed seed. The
// clock never goes back: scheduling before Now panics, and RunUntil
// fires every event up to the time it moves the clock to.
//
// The event queue is a monomorphic 4-ary min-heap stored in a plain slice.
// Compared to container/heap, this removes the per-event interface boxing
// (heap.Interface traffics in `any`, allocating every Push) and halves the
// sift depth; the slice's capacity is retained across removals, so a
// warmed-up engine schedules events with zero heap allocations. For hot
// paths, the AtFunc/AfterFunc variants also avoid the caller-side closure:
// they take a package-level func(any) plus a pointer-shaped argument,
// neither of which allocates.
//
// Events fire in place. Step reads the root without popping it and marks
// its slot vacant while the callback runs. Most callbacks schedule exactly
// one successor (a core's next step), and that first push takes the vacant
// root and sifts down once, where a pop followed by a push would sift
// twice. A callback that pushes nothing has its slot removed after it
// returns. Keys (at, seq) are unique, so every valid heap fires events
// in the same order, and runs are unchanged bit for bit.
package sim

import (
	"fmt"
	"time"
)

// Time is a simulation timestamp in nanoseconds.
type Time = int64

// Common durations in nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * 1000
	Second      Time = 1000 * 1000 * 1000
)

// event is one queue entry. Callbacks are stored uniformly as a func(any)
// plus argument: AtFunc events carry the caller's func and arg directly
// (no allocation for package-level funcs and pointer args), while At
// events carry the closure itself as the argument of a static trampoline.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// callClosure is the trampoline for At/After: the closure rides in arg.
func callClosure(a any) { a.(func())() }

// before orders events by time, then by scheduling order, so same-instant
// events fire deterministically.
func (e *event) before(o *event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// Engine is a discrete-event simulator clock and event queue.
type Engine struct {
	now Time
	seq uint64
	// events is a 4-ary min-heap ordered by (at, seq). Entries are stored
	// by value; the slice doubles as a free list, since removed slots are
	// reused by later pushes without reallocating.
	events []event
	// vacant marks events[0] as the event now firing: it still holds the
	// slot but is no longer queued. See Step.
	vacant bool
	// fired counts executed events, for diagnostics and runaway detection.
	fired uint64
	// Limit, if nonzero, aborts Run with a panic after this many events.
	// It guards against accidental event storms in tests.
	Limit uint64
	// deadline, if set, aborts Run with a panic once wall-clock time
	// passes it. Checked every deadlineStride events to keep Step cheap.
	deadline time.Time
}

// deadlineStride is how many events fire between wall-clock deadline
// checks; a power of two so the hot-path test is a mask.
const deadlineStride = 1024

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued, unexecuted events. A vacant root
// is the event now firing and does not count.
func (e *Engine) Pending() int {
	if e.vacant {
		return len(e.events) - 1
	}
	return len(e.events)
}

// push adds ev to the 4-ary heap. While Step is firing a vacated root,
// the first push takes the root's slot and sifts down from there, so a
// callback that schedules its successor costs one sift instead of a pop
// plus a push. Otherwise ev is appended and sifted up. Both sifts move
// displaced entries into the hole instead of swapping, so each level
// costs one event copy rather than two.
func (e *Engine) push(ev event) {
	if e.vacant {
		e.vacant = false
		siftDown(e.events, ev)
		return
	}
	h := append(e.events, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !ev.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = ev
	e.events = h
}

// siftDown places ev in the hole at the root of h, whose other entries
// form a valid heap, and moves it down to its place.
func siftDown(h []event, ev event) {
	n := len(h)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		best := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if h[j].before(&h[best]) {
				best = j
			}
		}
		if !h[best].before(&ev) {
			break
		}
		h[i] = h[best]
		i = best
	}
	h[i] = ev
}

// removeRoot deletes the vacated root: the last entry fills the hole
// and sifts down. The freed tail slot is cleared so fired closures can
// be GC'd.
func (e *Engine) removeRoot() {
	e.vacant = false
	h := e.events
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		siftDown(h, last)
	}
	e.events = h
}

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in a causal simulation and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: callClosure, arg: fn})
}

// After schedules fn to run d nanoseconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.At(e.now+d, fn)
}

// AtFunc schedules fn(arg) at absolute time t. Unlike At, it needs no
// closure: with a package-level fn and a pointer-shaped arg the call is
// allocation-free, which matters on per-access hot paths that schedule
// millions of events per run. Scheduling in the past panics.
func (e *Engine) AtFunc(t Time, fn func(any), arg any) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.seq++
	e.push(event{at: t, seq: e.seq, fn: fn, arg: arg})
}

// AfterFunc schedules fn(arg) d nanoseconds from now, allocation-free for
// package-level fn and pointer-shaped arg. Negative d panics.
func (e *Engine) AfterFunc(d Time, fn func(any), arg any) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	e.AtFunc(e.now+d, fn, arg)
}

// Step executes the next event, if any, advancing the clock to its time.
// It reports whether an event was executed.
//
// The event fires in place: its root slot stays in the heap, marked
// vacant, while the callback runs. The callback's first push fills the
// slot (see push); if it pushes nothing, the slot is removed after it
// returns. A Step or RunUntil nested inside a callback, or called after
// a callback panicked, first removes the vacant slot, so both keep the
// behaviour of a queue that pops the event before firing it.
func (e *Engine) Step() bool {
	if e.vacant {
		e.removeRoot()
	}
	if len(e.events) == 0 {
		return false
	}
	root := &e.events[0]
	e.now = root.at
	fn, arg := root.fn, root.arg
	e.vacant = true
	e.fired++
	if e.fired&(deadlineStride-1) == 0 || e.Limit != 0 {
		e.checkLimits()
	}
	fn(arg)
	if e.vacant {
		e.removeRoot()
	}
	return true
}

// checkLimits panics if the event limit or the wall-clock deadline has
// been passed.
func (e *Engine) checkLimits() {
	if e.Limit != 0 && e.fired > e.Limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded (now=%d, pending=%d, fired=%d)",
			e.Limit, e.Now(), e.Pending(), e.fired))
	}
	if e.fired&(deadlineStride-1) == 0 && !e.deadline.IsZero() && time.Now().After(e.deadline) {
		panic(fmt.Sprintf("sim: wall-clock deadline exceeded (now=%d, pending=%d, fired=%d)",
			e.Now(), e.Pending(), e.fired))
	}
}

// Deadline arms runaway protection: once wall-clock time advances by d,
// the next deadline check (every 1024 events) aborts Run with a panic
// carrying now/pending/fired diagnostics — a hung sweep point fails loudly
// instead of pinning a worker forever. Nonpositive d clears the deadline.
// Unlike Limit, the trigger is host time, so it catches simulations that
// are merely slow, not just event storms.
func (e *Engine) Deadline(d time.Duration) {
	if d <= 0 {
		e.deadline = time.Time{}
		return
	}
	e.deadline = time.Now().Add(d)
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with timestamps <= t, then sets the clock to t
// (if it has not already passed t). Events scheduled beyond t remain queued.
func (e *Engine) RunUntil(t Time) {
	if e.vacant {
		e.removeRoot()
	}
	for len(e.events) > 0 && e.events[0].at <= t {
		e.Step()
	}
	if e.now < t {
		e.now = t
	}
}
