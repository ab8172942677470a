package system

import (
	"fmt"

	"astriflash/internal/cachehier"
	"astriflash/internal/dramcache"
	"astriflash/internal/flash"
	"astriflash/internal/loadgen"
	"astriflash/internal/mem"
	"astriflash/internal/obs"
	"astriflash/internal/ospaging"
	"astriflash/internal/sim"
	"astriflash/internal/tlbvm"
	"astriflash/internal/uthread"
	"astriflash/internal/workload"
)

// jobState is one request in flight on a core.
type jobState struct {
	// core is the core the job is bound to; jobs never migrate. The
	// back-pointer lets hot-path events be scheduled through the engine's
	// allocation-free AfterFunc with the job itself as the argument.
	core    *coreState
	req     loadgen.Request
	steps   []workload.Step
	pc      int
	started bool
	// atAccess marks a job parked at its access (the resume register's
	// saved PC): resumption re-issues the access, not the compute.
	atAccess bool
	// forced is the forward-progress bit: the next access completes
	// synchronously even on a DRAM-cache miss (Section IV-C3).
	forced bool
	// pinnedPage, when set, is a page pinned by the OS fault path until
	// this job's retry consumes it (OS-Swap only).
	pinnedPage mem.PageNum
	hasPin     bool
	// faultRetries guards against eviction/refetch livelock.
	faultRetries int
	// missAt/readyAt timestamp the current miss for latency attribution.
	missAt  sim.Time
	readyAt sim.Time
	// deadline is the absolute completion deadline (0 = none). A request
	// finishing past it is counted as a deadline miss, not a good job.
	deadline sim.Time
	// dcIssued is the step's DRAM-cache issue instant, read by the
	// allocation-free reply event (flat.go) to price the DRAM stage.
	dcIssued sim.Time
	// hitDone is when the current on-chip hit returns, read by its
	// recency-refresh event (flat.go) to run the job on from there.
	hitDone sim.Time
	// th and tk are the job's user-level thread (user-thread modes) and
	// OS task (OS-Swap): Spawn initialises them and freeJob clears them,
	// so they pool with the job.
	th uthread.Thread
	tk ospaging.Task
	// syncStart is when the job's sync wait began. A parked thread's
	// wait uses missAt instead: a job can hold both registrations on one
	// page at once (parked, then aged-promoted into a sync wait), and
	// both fire in the same wake.
	syncStart sim.Time
	// waits counts the page-ready registrations and OS install events
	// naming the job. A job can retire with one outstanding: under
	// footprint fetching an aged-promoted thread hits the block its
	// parked wait is still fetching. It is then recycled by the last
	// registration to fire, never earlier.
	waits   int
	retired bool
	// gen counts the record's lives; freeJob bumps it.
	gen uint64
}

// coreState is one simulated core.
type coreState struct {
	s    *System
	id   int
	hier *cachehier.Hierarchy
	tlb  *tlbvm.TLB
	// wkr walks page tables through the DRAM cache (noDP only); nil
	// elsewhere, where a walk costs a fixed flatWalkNs.
	wkr *tlbvm.Walker

	sched *uthread.Scheduler   // user-thread modes
	runq  *ospaging.RunQueue   // OS-Swap
	fifo  sim.Queue[*jobState] // DRAM-only / Flash-Sync simple queue
	cur   *jobState            // job owning the core right now
	curTh *uthread.Thread      // its thread (user-thread modes)
	curTk *ospaging.Task       // its task (OS-Swap)

	busy       bool
	busySince  sim.Time
	busyAccum  int64
	lastMissAt sim.Time
	hasMissed  bool
}

// setBusy toggles the core's busy state, accumulating busy time.
func (c *coreState) setBusy(b bool) {
	now := c.s.eng.Now()
	if b && !c.busy {
		c.busySince = now
	}
	if !b && c.busy {
		c.busyAccum += now - c.busySince
	}
	c.busy = b
}

// dcBackend routes page-table accesses through the DRAM cache: the
// AstriFlash-noDP configuration, where cold table pages come from flash.
type dcBackend struct {
	eng *sim.Engine
	dc  *dramcache.Cache
}

func (b *dcBackend) AccessPT(p mem.PageNum, done func(at sim.Time)) {
	r := &ptAccess{b: b, p: p, done: done, r: b.dc.AccessSync(mem.Access{Addr: mem.PageBase(p)})}
	b.eng.AtFunc(r.r.At, ptReplyEvent, r)
}

// ptAccess is one walk level's table-page read.
type ptAccess struct {
	b    *dcBackend
	p    mem.PageNum
	done func(at sim.Time)
	r    dramcache.Result
}

// ptReplyEvent delivers the DRAM cache's reply to a table-page read.
func ptReplyEvent(a any) {
	r := a.(*ptAccess)
	if r.r.Hit {
		r.done(r.r.At)
		return
	}
	// Serialized walk: wait for the fill and re-read.
	r.b.dc.OnPageReady(r.p, ptPageReady, r)
}

func ptPageReady(a any, _ sim.Time) { r := a.(*ptAccess); r.b.AccessPT(r.p, r.done) }

func (s *System) newCore(id int) *coreState {
	c := &coreState{
		s:    s,
		id:   id,
		hier: cachehier.NewHierarchy(s.cfg.Hier),
		tlb:  tlbvm.NewTLB(tlbvm.TLBConfig{Sets: 64, Ways: 4, HitLatency: 1}),
	}
	c.hier.WritebackSink = func(block uint64) {
		page := mem.PageOf(mem.Addr(block * mem.BlockSize))
		if !s.dc.MarkDirty(page) && s.cfg.Mode != DRAMOnly {
			// Writeback raced the page's eviction: forward to flash.
			s.eng.AtFunc(s.flash.WritePage(page), flash.NopDone, nil)
		}
	}
	if s.cfg.Mode == AstriFlashNoDP {
		c.wkr = tlbvm.NewWalker(s.pt, &dcBackend{eng: s.eng, dc: s.dc})
	}

	if s.cfg.Mode.usesUserThreads() {
		schedCfg := s.cfg.Sched
		switch s.cfg.Mode {
		case AstriFlashIdeal:
			schedCfg.SwitchCost = 0
		case AstriFlashNoPS:
			schedCfg.Policy = uthread.FIFONoPriority
		}
		c.sched = uthread.NewScheduler(schedCfg)
	}
	if s.cfg.Mode == OSSwap {
		c.runq = ospaging.NewRunQueue()
	}
	return c
}

// coreKickEvent runs the core's scheduler; like the per-access path's
// callbacks (flat.go), a (top-level func, pointer arg) pair schedules
// allocation-free.
func coreKickEvent(a any) { a.(*coreState).kick() }

// enqueue adds a new job to the core's scheduler.
func (c *coreState) enqueue(job *jobState) {
	now := c.s.eng.Now()
	switch {
	case c.sched != nil:
		c.sched.Spawn(&job.th, job, now)
	case c.runq != nil:
		c.runq.Spawn(&job.tk, job, now)
	default:
		c.fifo.Push(job)
	}
	if !c.busy {
		c.kick()
	}
}

// kick schedules the next runnable job, if any.
func (c *coreState) kick() {
	if c.busy {
		return
	}
	now := c.s.eng.Now()
	switch {
	case c.sched != nil:
		th := c.sched.PickNext(now)
		if th == nil {
			return
		}
		job := th.Payload.(*jobState)
		if th.Switches > 0 && job.atAccess {
			// A resumed pending thread runs with the forward-progress
			// bit armed so it cannot be descheduled again before
			// retiring its access (Section IV-C3).
			job.forced = true
		}
		c.start(job, th, nil)
	case c.runq != nil:
		tk := c.runq.PickNext()
		if tk == nil {
			return
		}
		c.start(tk.Payload.(*jobState), nil, tk)
	default:
		if c.fifo.Len() == 0 {
			return
		}
		c.start(c.fifo.Pop(), nil, nil)
	}
}

// start installs a job on the core and continues its execution.
func (c *coreState) start(job *jobState, th *uthread.Thread, tk *ospaging.Task) {
	now := c.s.eng.Now()
	if !job.started && c.s.src.DropExpired && job.deadline > 0 &&
		now+sim.Time(c.s.src.ExpiryMarginNs) > job.deadline {
		// The deadline passed — or less than the expiry margin of budget
		// remains — while the request waited for its first dispatch:
		// shed it here instead of burning core time on a response nobody
		// is waiting for. The scheduler slot retires as
		// if the job completed, and the core moves on. The admission
		// controller still observes the sojourn — these are the longest
		// waits in the system, and a controller fed only survivors'
		// delays would read deep overload as improvement (the deeper the
		// overload, the more of its signal this path would censor).
		if c.s.onJobStart != nil {
			c.s.onJobStart(job)
		}
		c.s.ExpiredDrops.Inc()
		switch {
		case th != nil:
			c.sched.Finish()
		case tk != nil:
			c.runq.Finish()
		}
		if c.s.onJobDone != nil {
			c.s.onJobDone(c)
		}
		c.kick()
		c.s.freeJob(job)
		return
	}
	c.setBusy(true)
	c.cur = job
	c.curTh = th
	c.curTk = tk
	if !job.started {
		job.started = true
		job.req.StartedAt = now
		if c.s.onJobStart != nil {
			c.s.onJobStart(job)
		}
		if c.s.trace != nil && c.s.measuredAt(now) {
			// Queue spans are emitted even when zero-length: the analyzer
			// uses them to tell fully captured requests from ones that
			// started before the measurement window.
			c.s.trace.Emit(obs.Span{Req: job.req.ID, Core: c.id, Stage: obs.StageQueue,
				Start: job.req.ArrivedAt, End: job.req.StartedAt})
		}
	}
	if job.atAccess {
		job.atAccess = false
		c.emitMissTail(job, now)
		if job.readyAt > 0 {
			// Time between the page arriving and the thread regaining
			// the core is scheduling delay.
			c.s.attrAt(attrSched, now-job.readyAt, now)
			job.readyAt = 0
		}
		// The saved access re-issues at once: no compute precedes it.
		if t, ok := c.translate(job, now, true); ok {
			if t, ok = c.chipProbe(job, t); ok {
				c.runStepAt(job, t)
			}
		}
		return
	}
	c.runStepAt(job, now)
}

// complete retires the job and frees the core.
func (c *coreState) complete(job *jobState) {
	now := c.s.eng.Now()
	job.req.DoneAt = now
	if job.deadline > 0 {
		if now > job.deadline {
			c.s.DeadlineMisses.Inc()
		} else {
			c.s.GoodJobs.Inc()
		}
	}
	if c.s.measuredAt(now) {
		c.s.recorder.Complete(&job.req)
		c.s.JobsDone.Inc()
		if c.s.trace != nil {
			c.s.trace.Emit(obs.Span{Req: job.req.ID, Core: c.id, Stage: obs.StageComplete, Start: now, End: now})
		}
	}
	switch {
	case c.curTh != nil:
		c.sched.Finish()
	case c.curTk != nil:
		c.runq.Finish()
	}
	c.setBusy(false)
	c.cur, c.curTh, c.curTk = nil, nil, nil
	if c.s.onJobDone != nil {
		c.s.onJobDone(c)
	}
	c.kick()
	// The completion is the job's last event. freeJob recycles the
	// record now, or, while a page registration is still outstanding (an
	// aged-promoted thread can retire before its parked wait fires), marks
	// it retired so waitDone recycles it when the last one fires.
	c.s.freeJob(job)
}

// onDRAMMiss routes a DRAM-cache miss through the configured mechanism.
func (c *coreState) onDRAMMiss(job *jobState) {
	now := c.s.eng.Now()
	if c.s.measuredAt(now) {
		c.s.MissSignals.Inc()
		if c.hasMissed {
			c.s.MissInterval.Record(now - c.lastMissAt)
		}
	}
	c.hasMissed = true
	c.lastMissAt = now

	job.faultRetries++
	if job.faultRetries > 1000 {
		panic(fmt.Sprintf("system: job stuck refetching page %v", job.steps[job.pc].Access.Page()))
	}

	// Hold a reference on the incoming page until this job consumes it.
	// At paper scale the cache turns over in ~seconds and a just-installed
	// page is never evicted before its requester resumes; the scaled
	// cache turns over in sub-milliseconds, so the model must preserve
	// that property explicitly (the OS does it with a page reference, the
	// BC by deferring victimization of just-installed pages).
	if !job.hasPin {
		page := job.steps[job.pc].Access.Page()
		c.s.dc.Pin(page)
		job.pinnedPage = page
		job.hasPin = true
	}

	switch {
	case c.s.cfg.Mode == FlashSync:
		c.syncWait(job)
	case c.s.cfg.Mode == OSSwap:
		c.osFault(job)
	default:
		c.userThreadMiss(job)
	}
}

// syncWait blocks the core until the page arrives, then retries the
// access (Flash-Sync, and the forced-progress path in AstriFlash).
func (c *coreState) syncWait(job *jobState) {
	job.syncStart = c.s.eng.Now()
	c.s.awaitPage(job, syncPageReady)
}

// syncPageReady retries a sync-waiting job's access once its page is in.
func syncPageReady(a any, at sim.Time) {
	job := liveJob(a)
	c := job.core
	start, now := job.syncStart, c.s.eng.Now()
	c.s.noteFlashExpiry(job, start, at)
	c.s.attrAt(attrFlash, at-start, now)
	c.spanAt(now, job, obs.StageSyncWait, uint64(job.steps[job.pc].Access.Page()), start, at)
	c.dramAccess(job)
	c.s.waitDone(job)
}

// userThreadMiss is the AstriFlash switch-on-miss path: flush the
// pipeline, invoke the handler, park the thread, switch.
func (c *coreState) userThreadMiss(job *jobState) {
	now := c.s.eng.Now()
	if job.forced {
		// Forward-progress bit set: complete synchronously at FC.
		if c.s.measuredAt(now) {
			c.s.ForcedSync.Inc()
		}
		c.syncWait(job)
		return
	}
	if _, switched := c.sched.OnMiss(now); !switched {
		// Pending queue full: block on this thread synchronously.
		if c.s.measuredAt(now) {
			c.s.ForcedSync.Inc()
		}
		c.syncWait(job)
		return
	}
	job.atAccess = true
	job.missAt = now
	job.readyAt = 0
	c.s.awaitPage(job, parkedPageReady)
	c.setBusy(false)
	c.cur, c.curTh = nil, nil
	// Pipeline flush (the ROB is half full on average when the miss signal
	// arrives) plus the user-level thread switch.
	cost := c.missCost()
	c.s.attrAt(attrSched, cost, now)
	c.s.eng.AfterFunc(cost, coreKickEvent, c)
}

// parkedPageReady notifies the scheduler that a parked thread's page is
// in, and runs the core if it is idle.
func parkedPageReady(a any, at sim.Time) {
	job := liveJob(a)
	c := job.core
	c.s.noteFlashExpiry(job, job.missAt, at)
	job.readyAt = at
	c.s.attrAt(attrFlash, at-job.missAt, c.s.eng.Now())
	c.sched.NotifyReady(&job.th, at)
	if !c.busy {
		c.kick()
	}
	c.s.waitDone(job)
}

// osFault is the OS-Swap path: kernel fault entry under the VM lock, a
// context switch away, and a wake after install plus shootdown.
func (c *coreState) osFault(job *jobState) {
	if job.faultRetries > 3 {
		// The page keeps getting evicted before the task reschedules;
		// the OS wins eventually by retrying the fault while the task
		// stays on-CPU.
		c.syncWait(job)
		return
	}
	now := c.s.eng.Now()
	faultDone := c.s.kernel.PageFault(now)
	job.atAccess = true
	job.missAt = now
	job.readyAt = 0
	c.runq.Block(now)
	c.s.awaitPage(job, faultPageReady)
	c.setBusy(false)
	c.cur, c.curTk = nil, nil
	// The core spends the fault path plus one context switch before the
	// next task runs.
	resumeAt := faultDone + c.s.kernel.ContextSwitch()
	c.s.attrAt(attrOS, resumeAt-now, now)
	c.s.eng.AtFunc(resumeAt, coreKickEvent, c)
}

// faultPageReady is the OS fault path's page arrival: the kernel installs
// the page (mapping plus shootdown), then wakes the task.
func faultPageReady(a any, at sim.Time) {
	job := liveJob(a)
	c := job.core
	now := c.s.eng.Now()
	c.s.noteFlashExpiry(job, job.missAt, at)
	c.s.attrAt(attrFlash, at-job.missAt, now)
	installDone := c.s.kernel.InstallPage(at)
	c.s.attrAt(attrOS, installDone-at, now)
	page := uint64(job.steps[job.pc].Access.Page())
	c.spanAt(now, job, obs.StageFlashWait, page, job.missAt, at)
	c.spanAt(now, job, obs.StageOSInstall, page, at, installDone)
	job.waits++
	c.s.eng.AtFunc(installDone, osInstallEvent, job)
	c.s.waitDone(job)
}

// osInstallEvent requeues a faulted task once the kernel installed its
// page.
func osInstallEvent(a any) {
	job := liveJob(a)
	c := job.core
	job.readyAt = c.s.eng.Now()
	c.runq.Wake(&job.tk)
	if !c.busy {
		c.kick()
	}
	c.s.waitDone(job)
}

// awaitPage registers fn to run when the page of the job's current access
// is ready.
func (s *System) awaitPage(job *jobState, fn func(any, sim.Time)) {
	job.waits++
	s.dc.OnPageReady(job.steps[job.pc].Access.Page(), fn, job)
}

// liveJob returns the job a firing registration names, panicking if the
// job was recycled.
func liveJob(a any) *jobState {
	job := a.(*jobState)
	if job.waits <= 0 {
		panic(fmt.Sprintf("system: page waiter fired against recycled job (request %d, gen %d)", job.req.ID, job.gen))
	}
	return job
}

// waitDone retires a fired registration, recycling a job that retired
// while the registration was outstanding.
func (s *System) waitDone(job *jobState) {
	job.waits--
	if job.waits == 0 && job.retired {
		s.freeJob(job)
	}
}

// noteFlashExpiry counts a request whose deadline fell inside a flash
// wait: it entered the wait with time on the clock and came out an SLO
// casualty. Only the crossing wait counts, so each request is counted at
// most once however many misses follow.
func (s *System) noteFlashExpiry(job *jobState, waitStart, readyAt sim.Time) {
	if job.deadline > 0 && waitStart <= job.deadline && readyAt > job.deadline {
		s.ExpiredInFlash.Inc()
	}
}

// oldestNewAgeNs returns the age at now of this core's oldest job still
// waiting for its first dispatch, or 0.
func (c *coreState) oldestNewAgeNs(now sim.Time) int64 {
	switch {
	case c.sched != nil:
		return c.sched.OldestNewAge(now)
	case c.runq != nil:
		return c.runq.OldestNewAge(now)
	case c.fifo.Len() > 0:
		return int64(now - c.fifo.Head().req.ArrivedAt)
	}
	return 0
}

// queuedNew reports scheduler depth for diagnostics.
func (c *coreState) queuedNew() int {
	switch {
	case c.sched != nil:
		return c.sched.QueuedNew()
	case c.runq != nil:
		return c.runq.Runnable()
	default:
		return c.fifo.Len()
	}
}

// queuedPending reports miss-blocked thread count for diagnostics.
func (c *coreState) queuedPending() int {
	if c.sched != nil {
		return c.sched.QueuedPending()
	}
	return 0
}
