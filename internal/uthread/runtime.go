package uthread

import (
	"fmt"
	"sync"

	"astriflash/internal/sim"
)

// Runtime is an executable form of the paper's user-level threading
// library: cooperative worker threads multiplexed on one OS thread,
// parking on asynchronous operations (the library's analogue of a
// DRAM-cache miss) and resuming under the same priority-with-aging
// scheduler the simulator models. The simulator prices this library's
// behavior; the Runtime lets programs actually run on it.
//
// All scheduler state is owned by the goroutine that calls Run; worker
// functions communicate with it only through channels, so the library is
// race-free without locks on the scheduling fast path.
type Runtime struct {
	sched *Scheduler
	// Now supplies scheduler timestamps; defaults to a logical clock that
	// advances per scheduling decision.
	Now func() sim.Time

	logical    sim.Time
	resumes    map[*Thread]chan struct{}
	parks      chan parkMsg
	completes  chan *Thread
	mu         sync.Mutex // guards completes producers vs Close
	closed     bool
	ThreadsRun int
}

// parkMsg is a worker's transition report to the runtime loop.
type parkMsg struct {
	th   *Thread
	done bool // true: finished; false: parked on an async operation
}

// NewRuntime builds a runtime over a scheduler configuration.
func NewRuntime(cfg Config) *Runtime {
	rt := &Runtime{
		sched:     NewScheduler(cfg),
		resumes:   make(map[*Thread]chan struct{}),
		parks:     make(chan parkMsg),
		completes: make(chan *Thread, 1024),
	}
	rt.Now = func() sim.Time {
		rt.logical++
		return rt.logical
	}
	return rt
}

// Ctx is a worker thread's handle to the runtime.
type Ctx struct {
	rt     *Runtime
	th     *Thread
	resume chan struct{}
}

// Thread returns the underlying scheduler thread (for inspection).
func (c *Ctx) Thread() *Thread { return c.th }

// Go spawns fn as a cooperative thread. It may be called before Run or
// from inside another worker.
func (rt *Runtime) Go(fn func(*Ctx)) *Thread {
	th := rt.sched.Spawn(new(Thread), nil, rt.logical)
	resume := make(chan struct{})
	rt.resumes[th] = resume
	ctx := &Ctx{rt: rt, th: th, resume: resume}
	th.Payload = ctx
	go func() {
		<-resume // wait to be scheduled the first time
		fn(ctx)
		rt.parks <- parkMsg{th: th, done: true}
	}()
	return th
}

// Await starts an asynchronous operation and parks the calling thread
// until the operation invokes complete. It is the library form of the
// switch-on-miss handler: the thread yields the core, the scheduler runs
// other work, and the completion (the "page arrival") makes it ready.
// complete is safe to call from any goroutine, exactly once.
func (c *Ctx) Await(start func(complete func())) {
	rt := c.rt
	var once sync.Once
	start(func() {
		once.Do(func() {
			rt.mu.Lock()
			defer rt.mu.Unlock()
			if !rt.closed {
				rt.completes <- c.th
			}
		})
	})
	rt.parks <- parkMsg{th: c.th, done: false}
	// The worker waits on its own channel (held in Ctx): the runtime's
	// resumes map is touched only by the runtime goroutine.
	<-c.resume
}

// Yield parks the thread and immediately marks it ready: a cooperative
// scheduling point with no associated operation.
func (c *Ctx) Yield() {
	c.Await(func(complete func()) { complete() })
}

// Run drives the scheduler until every spawned thread has finished. It
// must be called from one goroutine only.
func (rt *Runtime) Run() {
	outstanding := len(rt.resumes)
	if outstanding == 0 {
		return
	}
	for outstanding > 0 {
		th := rt.sched.PickNext(rt.Now())
		if th == nil {
			// Nothing runnable: block for a completion.
			done := <-rt.completes
			rt.sched.NotifyReady(done, rt.Now())
			continue
		}
		if th.Switches > 0 && !th.Ready {
			// The scheduler promoted a pending thread before its
			// operation finished (aging, or nothing else to run). The
			// library's forced-progress rule: wait synchronously for its
			// completion before resuming — a thread must never observe
			// an unfinished await.
			rt.waitFor(th)
		}
		rt.drainCompletions()
		rt.ThreadsRun++
		rt.resumes[th] <- struct{}{}
		msg := <-rt.parks
		if msg.th != th {
			panic(fmt.Sprintf("uthread: cooperative protocol violated: %v parked while %v ran", msg.th.ID, th.ID))
		}
		if msg.done {
			rt.sched.Finish()
			delete(rt.resumes, th)
			outstanding--
			continue
		}
		// Parked on an async operation. If the pending queue is full the
		// thread keeps the core and blocks synchronously — the same
		// forced-progress fallback the hardware takes — possibly through
		// several consecutive awaits.
		for {
			blockOn, switched := rt.sched.OnMiss(rt.Now())
			if switched {
				break
			}
			// blockOn is still the running thread; wait for its own
			// completion while applying others'.
			rt.waitFor(blockOn)
			rt.resumes[blockOn] <- struct{}{}
			msg := <-rt.parks
			if msg.done {
				rt.sched.Finish()
				delete(rt.resumes, blockOn)
				outstanding--
				break
			}
			// Parked again: retry the park under the (possibly still
			// full) pending queue.
		}
	}
	rt.mu.Lock()
	rt.closed = true
	rt.mu.Unlock()
}

// waitFor blocks until th's completion arrives, applying other threads'
// completions along the way.
func (rt *Runtime) waitFor(th *Thread) {
	if th.Ready {
		return
	}
	for {
		done := <-rt.completes
		rt.sched.NotifyReady(done, rt.Now())
		if done == th {
			return
		}
	}
}

// drainCompletions applies all pending completion notifications without
// blocking.
func (rt *Runtime) drainCompletions() {
	for {
		select {
		case th := <-rt.completes:
			rt.sched.NotifyReady(th, rt.Now())
		default:
			return
		}
	}
}

// Scheduler exposes the underlying scheduler for statistics.
func (rt *Runtime) Scheduler() *Scheduler { return rt.sched }
