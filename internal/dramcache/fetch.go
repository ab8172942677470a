package dramcache

import (
	"fmt"

	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/obs"
	"astriflash/internal/sim"
)

// The miss path's in-flight state lives in pooled records instead of
// callback closures, so a warmed-up cache misses, fetches, installs and
// wakes without allocating. Two rules keep the pooling safe:
//
//   - A fetch record is live until every event naming it has fired. refs
//     counts those events; the record returns to the pool only when it
//     drops to zero. A read attempt with BC's watchdog armed is named by
//     two events, and the one that fires second must still find the
//     attempt (settled) rather than a recycled record.
//   - A waiter's state belongs to its registrant. The cache stores only
//     (fn, arg) and hands the slice that held them back to the pool once
//     the wake has run every entry.
//
// An event firing against a released record is a bug in this file and
// panics; gen counts a record's lives so the panic names the one it hit.

// waiter is one OnPageReady registration.
type waiter struct {
	fn  func(arg any, at sim.Time)
	arg any
}

// fetch is one backside-controller operation in flight: a miss's launch,
// one flash read attempt (with its watchdog), a recovered-copy fallback,
// a footprint block fetch, or the delivery of a ready page to its waiters.
type fetch struct {
	c       *Cache
	p       mem.PageNum
	write   bool     // launch: the miss was a write
	reqTime sim.Time // when the miss reached BC, for refill latency
	issued  sim.Time // when this attempt went to flash, for its span
	attempt int
	stage   obs.Stage // the attempt's span stage: first read or retry
	settled bool      // the attempt's read or watchdog has fired
	res     flash.ReadResult
	wake    []waiter // wake: the registrations to run
	wakeAt  sim.Time // wake: when the page became ready
	refs    int      // scheduled events naming this record
	gen     uint64   // bumped at each release
}

func launchEvent(a any)      { f := live(a); f.c.launch(f); f.c.unref(f) }
func readEvent(a any)        { f := live(a); f.c.readDone(f); f.c.unref(f) }
func watchdogEvent(a any)    { f := live(a); f.c.watchdogFired(f); f.c.unref(f) }
func recoveredEvent(a any)   { f := live(a); f.c.recovered(f); f.c.unref(f) }
func blockLaunchEvent(a any) { f := live(a); f.c.blockLaunch(f); f.c.unref(f) }
func blockReadEvent(a any)   { f := live(a); f.c.blockRead(f); f.c.unref(f) }
func wakeEvent(a any)        { f := live(a); f.c.runWake(f); f.c.unref(f) }

// writebackDoneEvent frees the evict-buffer slot of a victim whose
// write-back program completed.
func writebackDoneEvent(a any) { a.(*Cache).evictBuf-- }

// live returns the record an event names, panicking if it was released.
func live(a any) *fetch {
	f := a.(*fetch)
	if f.refs <= 0 {
		panic(fmt.Sprintf("dramcache: event fired against released fetch record (page %d, gen %d)", f.p, f.gen))
	}
	return f
}

// newFetch takes a record from the pool, or allocates one while the pool
// is still growing.
func (c *Cache) newFetch(p mem.PageNum, reqTime sim.Time) *fetch {
	var f *fetch
	if n := len(c.fetchFree); n > 0 {
		f = c.fetchFree[n-1]
		c.fetchFree = c.fetchFree[:n-1]
	} else {
		f = &fetch{c: c}
	}
	f.p, f.reqTime = p, reqTime
	return f
}

// schedule pushes fn(f) at time at and counts the reference.
func (c *Cache) schedule(at sim.Time, fn func(any), f *fetch) {
	f.refs++
	c.eng.AtFunc(at, fn, f)
}

// unref drops the reference of an event that has run, releasing the
// record once no scheduled event names it.
func (c *Cache) unref(f *fetch) {
	f.refs--
	if f.refs > 0 {
		return
	}
	*f = fetch{c: c, gen: f.gen + 1}
	c.fetchFree = append(c.fetchFree, f)
}

// newWaiters returns an empty waiter slice, reusing a recycled one.
func (c *Cache) newWaiters() []waiter {
	if n := len(c.waiterFree); n > 0 {
		ws := c.waiterFree[n-1]
		c.waiterFree = c.waiterFree[:n-1]
		return ws
	}
	return nil
}

// wake takes page p's registrations and schedules their delivery at at.
// The event is pushed even with no waiters, keeping the event stream
// independent of who is waiting.
func (c *Cache) wake(p mem.PageNum, at sim.Time) {
	f := c.newFetch(p, 0)
	f.wake = c.waiters[p]
	delete(c.waiters, p)
	f.wakeAt = at
	c.schedule(at, wakeEvent, f)
}

// runWake delivers a ready page to its waiters in registration order,
// then recycles the slice that held them. Waiters may register again
// (on any page) while the loop runs; they draw other slices.
func (c *Cache) runWake(f *fetch) {
	ws := f.wake
	for _, w := range ws {
		w.fn(w.arg, f.wakeAt)
	}
	if cap(ws) > 0 {
		clear(ws)
		c.waiterFree = append(c.waiterFree, ws[:0])
	}
}
