// Package ospaging models the traditional demand-paging baseline
// (OS-Swap, paper Sections II-C and V-B): the page-fault path through the
// kernel storage stack, kernel context switches, page-table updates with
// broadcast TLB shootdowns, and the global virtual-memory lock whose
// serialization keeps OS paging from scaling with core count (Figure 2).
package ospaging

import (
	"fmt"

	"astriflash/internal/sim"
	"astriflash/internal/stats"
	"astriflash/internal/tlbvm"
)

// Costs prices the kernel paths in nanoseconds, calibrated to the paper's
// measurements: ~10 us of combined page-fault and context-switch overhead
// per DRAM miss.
type Costs struct {
	// PageFaultEntry covers the trap, page-cache lookup, storage stack,
	// and NVMe submission (~5 us, Section II-C).
	PageFaultEntry int64
	// ContextSwitch is one kernel context switch (~5 us).
	ContextSwitch int64
	// PTEUpdate covers the page-table modification on install.
	PTEUpdate int64
	// FaultLockNs is the portion of the fault path holding the global VM
	// lock; the rest runs per-core in parallel.
	FaultLockNs int64
	// InstallLockNs is the locked portion of the install path (PTE
	// update plus shootdown initiation).
	InstallLockNs int64
	// ShootdownBatch, when > 1, coalesces that many installs into one
	// broadcast shootdown — the batching optimization the paper cites
	// ([1], [46]) that reduces but does not eliminate the overhead,
	// since the number of shootdowns still grows with core count.
	ShootdownBatch int
}

// DefaultCosts returns the paper's calibration: ~10 us of core-side
// overhead per miss, with ~1 us slices of global serialization in each
// kernel path — enough that paging stops scaling at high core counts
// (Figure 2) without serializing whole fault entries.
func DefaultCosts() Costs {
	return Costs{
		PageFaultEntry: 5_000,
		ContextSwitch:  5_000,
		PTEUpdate:      300,
		FaultLockNs:    1_000,
		InstallLockNs:  1_000,
	}
}

// Validate rejects negative costs.
func (c Costs) Validate() error {
	if c.PageFaultEntry < 0 || c.ContextSwitch < 0 || c.PTEUpdate < 0 ||
		c.FaultLockNs < 0 || c.InstallLockNs < 0 {
		return fmt.Errorf("ospaging: negative costs %+v", c)
	}
	if c.FaultLockNs > c.PageFaultEntry {
		return fmt.Errorf("ospaging: locked slice %d exceeds fault path %d", c.FaultLockNs, c.PageFaultEntry)
	}
	return nil
}

// Kernel is the shared kernel state: the global VM lock and the
// shootdown machinery. One Kernel serves all simulated cores.
type Kernel struct {
	eng       *sim.Engine
	costs     Costs
	shootdown tlbvm.ShootdownModel
	cores     int

	// vmLockFree is when the global mmap/VM lock next becomes available.
	// Page-fault handling and page installs serialize on it.
	vmLockFree sim.Time

	// pendingBatch counts installs since the last broadcast shootdown.
	pendingBatch int

	Faults         stats.Counter
	Installs       stats.Counter
	Shootdowns     stats.Counter
	LockWait       *stats.Histogram
	FaultPathLat   *stats.Histogram
	InstallPathLat *stats.Histogram
}

// NewKernel builds the kernel model for the given core count.
func NewKernel(eng *sim.Engine, costs Costs, sd tlbvm.ShootdownModel, cores int) *Kernel {
	if err := costs.Validate(); err != nil {
		panic(err)
	}
	if err := sd.Validate(); err != nil {
		panic(err)
	}
	if cores < 1 {
		panic("ospaging: need at least one core")
	}
	return &Kernel{
		eng:            eng,
		costs:          costs,
		shootdown:      sd,
		cores:          cores,
		LockWait:       stats.NewHistogram(),
		FaultPathLat:   stats.NewHistogram(),
		InstallPathLat: stats.NewHistogram(),
	}
}

// Costs returns the kernel's cost table.
func (k *Kernel) Costs() Costs { return k.costs }

// acquireLock serializes a kernel section of the given length starting no
// earlier than now, and returns when the section completes.
func (k *Kernel) acquireLock(now sim.Time, length int64) sim.Time {
	start := now
	if k.vmLockFree > start {
		start = k.vmLockFree
	}
	k.LockWait.Record(start - now)
	k.vmLockFree = start + length
	return k.vmLockFree
}

// PageFault charges the fault-entry path at time now: trap, page-cache
// check, storage-stack submission. Most of the path runs per-core; a
// short slice serializes on the VM lock. It returns the time at which the
// I/O has been submitted and the faulting thread can be descheduled.
func (k *Kernel) PageFault(now sim.Time) sim.Time {
	k.Faults.Inc()
	parallel := k.costs.PageFaultEntry - k.costs.FaultLockNs
	lockDone := k.acquireLock(now+parallel/2, k.costs.FaultLockNs)
	done := lockDone + parallel - parallel/2
	k.FaultPathLat.Record(done - now)
	return done
}

// InstallPage charges the completion path at time now: a locked PTE
// update and shootdown initiation, then the broadcast TLB shootdown
// across all cores (initiator waits, receivers ack in parallel). It
// returns when the mapping is globally visible and the faulting thread
// can be woken.
func (k *Kernel) InstallPage(now sim.Time) sim.Time {
	k.Installs.Inc()
	lockDone := k.acquireLock(now, k.costs.PTEUpdate+k.costs.InstallLockNs)
	batch := k.costs.ShootdownBatch
	if batch < 1 {
		batch = 1
	}
	k.pendingBatch++
	done := lockDone
	if k.pendingBatch >= batch {
		// Broadcast one shootdown covering the whole batch.
		k.pendingBatch = 0
		k.Shootdowns.Inc()
		done += k.shootdown.Latency(k.cores)
	}
	k.InstallPathLat.Record(done - now)
	return done
}

// ContextSwitch returns the cost of one kernel context switch.
func (k *Kernel) ContextSwitch() int64 { return k.costs.ContextSwitch }

// PerMissOverhead reports the core-side cost charged per DRAM miss under
// OS paging, excluding lock contention: fault entry plus two context
// switches' amortized share (one away, one back — the paper charges
// ~10 us combined).
func (k *Kernel) PerMissOverhead() int64 {
	return k.costs.PageFaultEntry + k.costs.ContextSwitch
}

// Task is one OS-visible thread in the run queue model. The caller owns
// its memory (Spawn initialises it), so it can live in a pooled record.
type Task struct {
	ID      uint64
	Payload any

	EnqueuedAt sim.Time
	BlockedAt  sim.Time
}

// RunQueue is a per-core kernel scheduler: plain FIFO over runnable
// tasks; blocked tasks re-enter the queue when their I/O completes. No
// aging or priorities — the paper's OS-Swap baseline relies on default
// kernel scheduling.
type RunQueue struct {
	runnable sim.Queue[*Task]
	running  *Task
	nextID   uint64

	Spawned  stats.Counter
	Switches stats.Counter
}

// NewRunQueue returns an empty run queue.
func NewRunQueue() *RunQueue { return &RunQueue{} }

// Spawn initialises t as a new task and enqueues it. It returns t.
func (q *RunQueue) Spawn(t *Task, payload any, now sim.Time) *Task {
	q.nextID++
	*t = Task{ID: q.nextID, Payload: payload, EnqueuedAt: now}
	q.runnable.Push(t)
	q.Spawned.Inc()
	return t
}

// Running returns the scheduled task, or nil.
func (q *RunQueue) Running() *Task { return q.running }

// Runnable returns the run-queue depth.
func (q *RunQueue) Runnable() int { return q.runnable.Len() }

// Block deschedules the running task (page fault submitted).
func (q *RunQueue) Block(now sim.Time) *Task {
	if q.running == nil {
		panic("ospaging: Block with no running task")
	}
	t := q.running
	t.BlockedAt = now
	q.running = nil
	q.Switches.Inc()
	return t
}

// Wake re-queues a blocked task after its page installed.
func (q *RunQueue) Wake(t *Task) { q.runnable.Push(t) }

// OldestNewAge returns the age at now of the oldest never-scheduled task,
// or 0 — the head-of-line queueing delay an admission controller bounds.
// Woken tasks (re-queued after a fault, BlockedAt set) are skipped: their
// first dispatch already happened. New tasks enter in arrival order, so
// the first never-blocked task in the queue is the oldest.
func (q *RunQueue) OldestNewAge(now sim.Time) int64 {
	for _, t := range q.runnable.Items() {
		if t.BlockedAt == 0 {
			return int64(now - t.EnqueuedAt)
		}
	}
	return 0
}

// PickNext installs the FIFO head as running, or returns nil.
func (q *RunQueue) PickNext() *Task {
	if q.running != nil {
		panic("ospaging: PickNext while a task is running")
	}
	if q.runnable.Len() == 0 {
		return nil
	}
	t := q.runnable.Pop()
	q.running = t
	return t
}

// Finish retires the running task.
func (q *RunQueue) Finish() {
	if q.running == nil {
		panic("ospaging: Finish with no running task")
	}
	q.running = nil
}
