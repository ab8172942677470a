// Package uthread implements AstriFlash's user-level threading library and
// scheduler (paper Section IV-D): per-core cooperative worker threads, a
// switch-on-miss entry point invoked through the core's handler register,
// a bounded pending queue for miss-blocked threads, priority scheduling
// that favors new jobs while aging prevents starvation, and the
// queue-pair notification path that wakes threads when their page arrives
// from flash.
package uthread

import (
	"fmt"

	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

// Policy selects the scheduling discipline.
type Policy int

// Scheduling policies from the paper's evaluated configurations.
const (
	// PriorityAging is the AstriFlash scheduler: new jobs run at higher
	// priority; the pending queue's head is promoted when it is ready or
	// older than the average flash response time.
	PriorityAging Policy = iota
	// FIFONoPriority is the AstriFlash-noPS baseline: the pending queue
	// is consulted only when no new job exists, so pending jobs starve
	// behind bursts of fresh work (Table II's ~7x tail).
	FIFONoPriority
)

func (p Policy) String() string {
	switch p {
	case PriorityAging:
		return "priority+aging"
	case FIFONoPriority:
		return "fifo"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Thread is one user-level execution context. The payload is opaque to
// the scheduler; the system layer stores its job state there. The caller
// owns a Thread's memory (Spawn initialises it), so it can be embedded in
// a pooled record and reused once the thread has finished.
type Thread struct {
	ID      uint64
	Payload any

	// EnqueuedAt is when the job entered the system (for response-time
	// accounting by the caller).
	EnqueuedAt sim.Time
	// PendingSince is when the thread last entered the pending queue.
	PendingSince sim.Time
	// Ready is set by the notification path when the missing page has
	// arrived from flash.
	Ready bool
	// Switches counts how many times this thread was descheduled.
	Switches int
}

// Config tunes the scheduler.
type Config struct {
	Policy Policy
	// PendingLimit bounds the pending queue; when full, a new miss makes
	// the scheduler block on the oldest pending thread instead of
	// switching (Section IV-D1).
	PendingLimit int
	// SwitchCost is the user-level thread-switch time, ~100 ns.
	SwitchCost int64
	// InitialFlashEstimate seeds the average-flash-response tracker used
	// by the aging rule before any completion has been observed.
	InitialFlashEstimate int64
	// AgingFactor scales the promotion threshold: the pending head is
	// promoted once its age exceeds AgingFactor x the average flash
	// response. Values near 1 promote eagerly (many forced-synchronous
	// resumes under response-time variance); 2 keeps promotion a
	// starvation backstop.
	AgingFactor float64
}

// DefaultConfig matches the paper: 100 ns switches, pending queue bounded
// to keep tail latency in check.
func DefaultConfig() Config {
	return Config{
		Policy:               PriorityAging,
		PendingLimit:         32,
		SwitchCost:           100,
		InitialFlashEstimate: 50_000,
		AgingFactor:          3,
	}
}

// Scheduler is the per-core user-level scheduler.
type Scheduler struct {
	cfg     Config
	newQ    sim.Queue[*Thread]
	pending sim.Queue[*Thread]
	running *Thread
	nextID  uint64

	// avgFlash is an exponentially weighted moving average of observed
	// flash response times, the aging threshold.
	avgFlash float64
	// missEvent marks that the last deschedule was a miss; the noPS
	// policy consults the pending queue only at these points.
	missEvent bool

	Spawned     stats.Counter
	SwitchCount stats.Counter
	AgedPromos  stats.Counter
	ReadyPromos stats.Counter
	BlockedFull stats.Counter
}

// NewScheduler returns an idle scheduler.
func NewScheduler(cfg Config) *Scheduler {
	if cfg.PendingLimit <= 0 {
		panic(fmt.Sprintf("uthread: pending limit %d must be positive", cfg.PendingLimit))
	}
	if cfg.AgingFactor <= 0 {
		cfg.AgingFactor = 1
	}
	return &Scheduler{cfg: cfg, avgFlash: float64(cfg.InitialFlashEstimate)}
}

// Config returns the scheduler's configuration.
func (s *Scheduler) Config() Config { return s.cfg }

// Spawn initialises th as a new job's thread and queues it. It returns
// th; the scheduler holds it until Finish retires it.
func (s *Scheduler) Spawn(th *Thread, payload any, now sim.Time) *Thread {
	s.nextID++
	*th = Thread{ID: s.nextID, Payload: payload, EnqueuedAt: now}
	s.newQ.Push(th)
	s.Spawned.Inc()
	return th
}

// Running returns the currently scheduled thread, or nil.
func (s *Scheduler) Running() *Thread { return s.running }

// QueuedNew returns the number of never-scheduled jobs.
func (s *Scheduler) QueuedNew() int { return s.newQ.Len() }

// QueuedPending returns the number of miss-blocked threads.
func (s *Scheduler) QueuedPending() int { return s.pending.Len() }

// PendingFull reports whether a new miss must block instead of switching.
func (s *Scheduler) PendingFull() bool { return s.pending.Len() >= s.cfg.PendingLimit }

// AvgFlashResponse returns the current aging threshold in nanoseconds.
func (s *Scheduler) AvgFlashResponse() int64 { return int64(s.avgFlash) }

// OnMiss is the handler entry point: the running thread suffered a
// DRAM-cache miss at time now. If the pending queue has room the thread
// parks there and OnMiss returns (nil, true) meaning "switch": the caller
// should charge SwitchCost and call PickNext. If the queue is full it
// returns (thread, false): the scheduler blocks on this thread — the
// caller waits for its page and resumes it with forced progress.
func (s *Scheduler) OnMiss(now sim.Time) (blockOn *Thread, switched bool) {
	if s.running == nil {
		panic("uthread: OnMiss with no running thread")
	}
	th := s.running
	if s.PendingFull() {
		s.BlockedFull.Inc()
		// The oldest pending job bounds the tail; block on the current
		// thread synchronously (it keeps the core). A miss still
		// happened: the noPS policy's next pick consults the pending
		// queue, or the queue could never drain under sustained load.
		s.missEvent = true
		return th, false
	}
	th.PendingSince = now
	th.Ready = false
	th.Switches++
	s.pending.Push(th)
	s.running = nil
	s.missEvent = true
	s.SwitchCount.Inc()
	return nil, true
}

// NotifyReady marks a pending thread's page as arrived and folds the
// observed flash response time into the aging threshold. It is the model
// of the BC-to-core queue-pair notification (Section IV-D2).
func (s *Scheduler) NotifyReady(th *Thread, now sim.Time) {
	th.Ready = true
	observed := float64(now - th.PendingSince)
	if observed > 0 {
		const alpha = 0.2
		s.avgFlash = (1-alpha)*s.avgFlash + alpha*observed
	}
}

// PickNext selects and installs the next thread to run at time now,
// applying the configured policy. It returns nil when nothing is
// runnable. Pending threads picked before their page arrived must be
// resumed with the forward-progress bit set by the caller.
func (s *Scheduler) PickNext(now sim.Time) *Thread {
	if s.running != nil {
		panic("uthread: PickNext while a thread is running")
	}
	var th *Thread
	switch s.cfg.Policy {
	case PriorityAging:
		th = s.pickPriorityAging(now)
	case FIFONoPriority:
		th = s.pickFIFO()
	default:
		panic(fmt.Sprintf("uthread: unknown policy %d", s.cfg.Policy))
	}
	s.running = th
	return th
}

// pickPriorityAging implements Figure 8: check the pending queue's head
// after every request; promote it when ready or over-age, otherwise run a
// new job; fall back to the pending head when no new work exists.
func (s *Scheduler) pickPriorityAging(now sim.Time) *Thread {
	if s.pending.Len() > 0 {
		head := s.pending.Head()
		age := now - head.PendingSince
		if head.Ready || float64(age) > s.cfg.AgingFactor*s.avgFlash {
			if head.Ready {
				s.ReadyPromos.Inc()
			} else {
				s.AgedPromos.Inc()
			}
			return s.pending.Pop()
		}
	}
	return s.pickNewThenPending()
}

// pickNewThenPending runs the oldest new job, or else the pending head,
// or nothing.
func (s *Scheduler) pickNewThenPending() *Thread {
	if s.newQ.Len() > 0 {
		return s.newQ.Pop()
	}
	if s.pending.Len() > 0 {
		return s.pending.Pop()
	}
	return nil
}

// pickFIFO is the noPS policy (Table II): the pending queue is consulted
// only when the scheduler was entered by a miss — and even then only a
// ready head is taken; otherwise new jobs always win and pending jobs
// drain when no new work exists.
func (s *Scheduler) pickFIFO() *Thread {
	if s.missEvent {
		s.missEvent = false
		if s.pending.Len() > 0 && s.pending.Head().Ready {
			return s.pending.Pop()
		}
	}
	return s.pickNewThenPending()
}

// Unblock removes a specific thread from the pending queue (used when the
// scheduler decided to block on it synchronously after PendingFull, or by
// forced-progress resumption paths). It reports whether the thread was
// found.
func (s *Scheduler) Unblock(th *Thread) bool { return s.pending.Remove(th) }

// Finish retires the running thread.
func (s *Scheduler) Finish() {
	if s.running == nil {
		panic("uthread: Finish with no running thread")
	}
	s.running = nil
}

// ResumeDirect installs th as running without queue transit (the blocked-
// on-full path where the core never switched away).
func (s *Scheduler) ResumeDirect(th *Thread) {
	if s.running != nil {
		panic("uthread: ResumeDirect while a thread is running")
	}
	s.running = th
}

// OldestNewAge returns the age of the oldest never-scheduled job at now,
// or 0 — the head-of-line queueing delay an admission controller bounds.
func (s *Scheduler) OldestNewAge(now sim.Time) int64 {
	if s.newQ.Len() == 0 {
		return 0
	}
	return now - s.newQ.Head().EnqueuedAt
}

// OldestPendingAge returns the age of the pending head at now, or 0.
func (s *Scheduler) OldestPendingAge(now sim.Time) int64 {
	if s.pending.Len() == 0 {
		return 0
	}
	return now - s.pending.Head().PendingSince
}
