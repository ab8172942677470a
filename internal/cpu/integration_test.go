package cpu

import (
	"testing"

	"astriflash/internal/mem"
	"astriflash/internal/uthread"
)

// pagedMemory is a Memory whose pages can be DRAM-resident or flash-only;
// accessing a non-resident page is the DRAM-cache miss the core's
// switch-on-miss machinery must handle.
type pagedMemory struct {
	data     map[mem.Addr]uint64
	resident map[mem.PageNum]bool
}

func newPagedMemory() *pagedMemory {
	return &pagedMemory{data: map[mem.Addr]uint64{}, resident: map[mem.PageNum]bool{}}
}

func (m *pagedMemory) ReadWord(a mem.Addr) uint64     { return m.data[a] }
func (m *pagedMemory) WriteWord(a mem.Addr, v uint64) { m.data[a] = v }
func (m *pagedMemory) isResident(a mem.Addr) bool     { return m.resident[mem.PageOf(a)] }

// TestSwitchOnMissEndToEnd drives the complete Section IV-C/IV-D flow at
// instruction level: two user-level threads run store-heavy programs on
// one core; a store to a non-resident page is caught post-retirement in
// the store buffer, aborted with an exact register-state rollback, the
// handler/resume registers transfer control to the scheduler, the second
// thread runs, the page "arrives," and the first thread resumes from the
// aborted store and completes with correct memory contents.
func TestSwitchOnMissEndToEnd(t *testing.T) {
	pm := newPagedMemory()
	core := New(DefaultConfig(), pm)
	const handlerPC = 0xaaaa0000
	if err := core.InstallHandler(handlerPC); err != nil {
		t.Fatal(err)
	}
	sched := uthread.NewScheduler(uthread.DefaultConfig())

	// Thread A stores 7 at page 5 (non-resident: will miss), then 8 at
	// page 6. Thread B stores 9 at page 7 (resident).
	pm.resident[6] = true
	pm.resident[7] = true

	type prog struct {
		name  string
		insts []Inst
	}
	progA := prog{"A", []Inst{
		{Op: OpConst, Dest: 1, Imm: uint64(mem.PageBase(5))},
		{Op: OpConst, Dest: 2, Imm: 7},
		{Op: OpStore, Rs1: 1, Rs2: 2},
		{Op: OpConst, Dest: 1, Imm: uint64(mem.PageBase(6))},
		{Op: OpConst, Dest: 2, Imm: 8},
		{Op: OpStore, Rs1: 1, Rs2: 2},
	}}
	progB := prog{"B", []Inst{
		{Op: OpConst, Dest: 1, Imm: uint64(mem.PageBase(7))},
		{Op: OpConst, Dest: 2, Imm: 9},
		{Op: OpStore, Rs1: 1, Rs2: 2},
	}}

	type threadCtx struct {
		prog prog
		pc   int      // program index to resume from
		regs []uint64 // saved context (the thread library's stack copy)
	}
	sched.Spawn(new(uthread.Thread), &threadCtx{prog: progA}, 0)
	sched.Spawn(new(uthread.Thread), &threadCtx{prog: progB}, 0)

	completed := map[string]bool{}
	var missedThread *uthread.Thread
	var missedPage mem.PageNum

	// Run until both programs complete, simulating the core executing
	// one thread at a time with switch-on-miss.
	now := int64(0)
	for rounds := 0; rounds < 100 && len(completed) < 2; rounds++ {
		now += 1000
		th := sched.PickNext(now)
		if th == nil {
			// Nothing runnable: the missing page arrives (flash reply),
			// waking the parked thread via the notification path.
			if missedThread == nil {
				t.Fatal("scheduler idle with no pending miss")
			}
			pm.resident[missedPage] = true
			sched.NotifyReady(missedThread, now)
			missedThread = nil
			continue
		}
		ctx := th.Payload.(*threadCtx)
		if th.Switches > 0 {
			// Resumed thread: the library restores the saved context;
			// the resume register points at the aborted store and
			// forward progress forces it through (Section IV-C3).
			core.RestoreArchState(ctx.regs)
			core.SetResume(uint64(ctx.pc), true)
			core.Resume()
		}

		aborted := false
		for i := ctx.pc; i < len(ctx.prog.insts) && !aborted; i++ {
			inst := ctx.prog.insts[i]
			core.Issue(inst)
			core.RetireAll()
			// Drain stores; a store to a non-resident page miss-signals
			// back to the core unless forward progress is forced.
			for core.SBOccupancy() > 0 {
				sb := core.SBEntry(0)
				if !pm.isResident(sb.Addr) && !core.ForwardProgress() {
					cost := core.AbortStore(0)
					if cost <= 0 {
						t.Fatal("abort did not charge a flush")
					}
					if core.PC() != handlerPC {
						t.Fatalf("PC = %#x after miss, want handler", core.PC())
					}
					ctx.pc = i                  // resume from the aborted store
					ctx.regs = core.ArchState() // context to the thread stack
					blockOn, switched := sched.OnMiss(now)
					if !switched {
						t.Fatalf("pending queue unexpectedly full: %v", blockOn)
					}
					missedThread = th
					missedPage = mem.PageOf(sb.Addr)
					aborted = true
					break
				}
				if !pm.isResident(sb.Addr) {
					// Forced progress: the access completes synchronously
					// (the page arrives while the core waits).
					pm.resident[mem.PageOf(sb.Addr)] = true
				}
				core.DrainStore()
				core.ClearForwardProgress()
			}
		}
		if !aborted {
			completed[ctx.prog.name] = true
			sched.Finish()
		}
	}

	if !completed["A"] || !completed["B"] {
		t.Fatalf("programs did not complete: %v", completed)
	}
	// Memory must hold every store exactly once, including the replayed
	// aborted store.
	if got := pm.data[mem.PageBase(5)]; got != 7 {
		t.Fatalf("page 5 = %d, want 7 (replayed store)", got)
	}
	if got := pm.data[mem.PageBase(6)]; got != 8 {
		t.Fatalf("page 6 = %d, want 8", got)
	}
	if got := pm.data[mem.PageBase(7)]; got != 9 {
		t.Fatalf("page 7 = %d, want 9", got)
	}
	if msg := core.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if core.StoreAborts.Value() != 1 {
		t.Fatalf("store aborts = %d, want 1", core.StoreAborts.Value())
	}
}
