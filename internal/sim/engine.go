// Package sim provides a deterministic discrete-event simulation engine.
//
// All AstriFlash components (cores, controllers, devices, schedulers) share
// one Engine. Time is measured in integer nanoseconds. Events fire in
// (at, seq) order: by time, and events scheduled for the same instant in
// scheduling order, so a run is bit-reproducible given a fixed seed. The
// clock never goes back: scheduling before Now panics, and RunUntil
// fires every event up to the time it moves the clock to.
//
// The queue has two parts, split by how far ahead an event is when it is
// pushed. Almost every event is a core step a few hundred ns ahead; a few
// are flash completions tens of µs ahead.
//
//   - An event with at−now < wheelSlots goes on a timing wheel of
//     wheelSlots one-nanosecond slots (Varghese and Lauck, SOSP 1987),
//     into slot at mod wheelSlots. Each slot is a FIFO: a circular list,
//     threaded through a slab of entries, that the wheel names by its
//     tail. An occupancy bitmap finds the next busy slot a word at a
//     time. Push and pop are O(1).
//   - Any other event goes on an overflow queue, a monomorphic 4-ary
//     min-heap ordered by (at, seq) in a plain slice.
//
// The split keeps the (at, seq) order exactly. Wheel events all lie in
// [now, now+wheelSlots), because the clock only moves to the earliest
// event or, in RunUntil, to a time before every queued one; so a slot
// holds one instant, and its FIFO order is push order, which is seq
// order. An overflow event at T was pushed while T−now ≥ wheelSlots, so
// before any wheel event at T could be. At equal times the heap's root
// therefore fires first: Step takes the root when its time is <= the
// wheel's next time.
//
// Step pops its event before firing it, so a Step nested inside a
// callback, or one after a callback panicked, needs no special case. No
// part allocates once warmed up: the slab and the heap keep their
// capacity, and freed slab entries go on a free list. For hot paths,
// the AtFunc/AfterFunc variants also avoid the caller-side closure: they
// take a package-level func(any) plus a pointer-shaped argument, neither
// of which allocates.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// minQueueCap is the capacity the slab and the overflow heap start with
// on their first push. Queues this deep are common (a flash machine keeps
// a few completions in the heap), and starting there keeps a slowly
// deepening queue from reallocating after a run's warm-up.
const minQueueCap = 64

// wheelSlots is the timing wheel's horizon in ns, a power of two. In one
// run per benchmark workload (seed 42367), 98.5–100% of pushes are less
// than 512 ns ahead. Most of the rest are flash and GC delays of
// 2^15–2^25 ns; open-loop arrival gaps add some of 0.5–16 µs.
const wheelSlots = 512

// event is one overflow-heap entry. Callbacks are stored uniformly as a
// func(any) plus argument: AtFunc events carry the caller's func and arg
// directly (no allocation for package-level funcs and pointer args),
// while At events carry the closure itself as the argument of a static
// trampoline.
type event struct {
	at  Time
	seq uint64
	fn  func(any)
	arg any
}

// wheelEntry is one timing-wheel entry. Its time is implied by its slot.
// next links it into its slot's circular list, or into the free list.
type wheelEntry struct {
	fn   func(any)
	arg  any
	next int32
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

// Engine is a discrete-event simulator clock and event queue. Create one
// with NewEngine; the zero value is not ready for use.
type Engine struct {
	now Time
	// seq numbers overflow pushes; wheel entries need none (see package
	// comment).
	seq uint64
	// busy has bit s set when wheel slot s holds an event; tails[s] is
	// then the slab index of the slot's newest entry, whose next is the
	// oldest.
	busy  [wheelSlots / 64]uint64
	tails [wheelSlots]int32
	// slab holds the wheel's entries; free heads the list of unused ones
	// (-1 if none) and wheelLen counts the queued ones.
	slab     []wheelEntry
	free     int32
	wheelLen int
	// overflow is a 4-ary min-heap ordered by (at, seq), stored by value.
	overflow []event
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
	return &Engine{free: -1}
}

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Fired returns the number of events executed so far.
func (e *Engine) Fired() uint64 { return e.fired }

// Pending returns the number of queued, unexecuted events.
func (e *Engine) Pending() int { return e.wheelLen + len(e.overflow) }

// push queues fn(arg) at time at >= now: on the wheel if it is less
// than wheelSlots ahead, on the overflow heap otherwise.
func (e *Engine) push(at Time, fn func(any), arg any) {
	if at-e.now >= wheelSlots {
		e.seq++
		e.pushOverflow(event{at: at, seq: e.seq, fn: fn, arg: arg})
		return
	}
	n := e.free
	if n >= 0 {
		e.free = e.slab[n].next
	} else {
		if e.slab == nil {
			e.slab = make([]wheelEntry, 0, minQueueCap)
		}
		n = int32(len(e.slab))
		e.slab = append(e.slab, wheelEntry{})
	}
	ent := &e.slab[n]
	ent.fn, ent.arg = fn, arg
	s := int(at & (wheelSlots - 1))
	if w, b := s>>6, uint64(1)<<(s&63); e.busy[w]&b == 0 {
		e.busy[w] |= b
		ent.next = n
	} else {
		t := &e.slab[e.tails[s]]
		ent.next = t.next
		t.next = n
	}
	e.tails[s] = n
	e.wheelLen++
}

// nextSlot returns the wheel slot of the earliest wheel event; the wheel
// must not be empty. Slots from now's slot up to the end of the wheel
// hold the nearest times, then the search wraps to slot 0.
func (e *Engine) nextSlot() int {
	s := int(e.now & (wheelSlots - 1))
	w := s >> 6
	if b := e.busy[w] >> (s & 63); b != 0 {
		return s + bits.TrailingZeros64(b)
	}
	for i := 1; i <= len(e.busy); i++ {
		j := (w + i) % len(e.busy)
		if b := e.busy[j]; b != 0 {
			return j<<6 + bits.TrailingZeros64(b)
		}
	}
	panic("sim: empty timing wheel")
}

// popSlot removes the oldest entry of busy slot s and returns its
// callback. The entry goes on the free list, cleared so the fired
// callback can be collected.
func (e *Engine) popSlot(s int) (func(any), any) {
	t := e.tails[s]
	h := e.slab[t].next
	if h == t {
		e.busy[s>>6] &^= 1 << (s & 63)
	} else {
		e.slab[t].next = e.slab[h].next
	}
	ent := &e.slab[h]
	fn, arg := ent.fn, ent.arg
	*ent = wheelEntry{next: e.free}
	e.free = h
	e.wheelLen--
	return fn, arg
}

// pushOverflow adds ev to the 4-ary heap. Sifts move displaced entries
// into the hole instead of swapping, so each level costs one event copy
// rather than two.
func (e *Engine) pushOverflow(ev event) {
	if e.overflow == nil {
		e.overflow = make([]event, 0, minQueueCap)
	}
	h := append(e.overflow, ev)
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
	e.overflow = h
}

// popOverflow removes the heap's root and returns its callback: the last
// entry fills the hole and sifts down. The freed tail slot is cleared so
// the fired callback can be collected.
func (e *Engine) popOverflow() (func(any), any) {
	h := e.overflow
	root := h[0]
	n := len(h) - 1
	last := h[n]
	h[n] = event{}
	h = h[:n]
	if n > 0 {
		siftDown(h, last)
	}
	e.overflow = h
	return root.fn, root.arg
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

// At schedules fn to run at absolute time t. Scheduling in the past is an
// error in a causal simulation and panics.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %d before now %d", t, e.now))
	}
	e.push(t, callClosure, fn)
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
	e.push(t, fn, arg)
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
func (e *Engine) Step() bool { return e.step(math.MaxInt64) }

// step pops and fires the next event if its time is at most limit.
func (e *Engine) step(limit Time) bool {
	var at Time
	s := -1
	if e.wheelLen > 0 {
		s = e.nextSlot()
		at = e.now + Time((s-int(e.now))&(wheelSlots-1))
	}
	var fn func(any)
	var arg any
	if len(e.overflow) > 0 && (s < 0 || e.overflow[0].at <= at) {
		at = e.overflow[0].at
		if at > limit {
			return false
		}
		fn, arg = e.popOverflow()
	} else {
		if s < 0 || at > limit {
			return false
		}
		fn, arg = e.popSlot(s)
	}
	e.now = at
	e.fired++
	if e.fired&(deadlineStride-1) == 0 || e.Limit != 0 {
		e.checkLimits()
	}
	fn(arg)
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
	for e.step(t) {
	}
	if e.now < t {
		e.now = t
	}
}
