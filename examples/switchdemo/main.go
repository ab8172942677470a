// switchdemo walks through AstriFlash's hardware-software interface at
// instruction level (paper Sections IV-C and IV-D), narrating each step:
// a store retires into the store buffer, its page misses in the DRAM
// cache, the ASO-style rollback reverts the committed store and the
// speculative work after it, the handler/resume registers hand control to
// the user-level scheduler, another thread runs, and the aborted thread
// later resumes — with the forward-progress bit forcing its access to
// complete.
//
// This example uses the internal core and thread-library packages
// directly; it is the microscope view of what the system simulator does
// millions of times per run.
package main

import (
	"fmt"

	"astriflash/internal/cpu"
	"astriflash/internal/mem"
	"astriflash/internal/uthread"
)

type pagedMem struct {
	data     map[mem.Addr]uint64
	resident map[mem.PageNum]bool
}

func (m *pagedMem) ReadWord(a mem.Addr) uint64     { return m.data[a] }
func (m *pagedMem) WriteWord(a mem.Addr, v uint64) { m.data[a] = v }

func main() {
	pm := &pagedMem{data: map[mem.Addr]uint64{}, resident: map[mem.PageNum]bool{7: true}}
	core := cpu.New(cpu.DefaultConfig(), pm)
	const handler = 0xaaaa0000
	if err := core.InstallHandler(handler); err != nil {
		panic(err)
	}
	fmt.Printf("1. OS installs the user-level handler at %#x (privileged write)\n", uint64(handler))

	sched := uthread.NewScheduler(uthread.DefaultConfig())
	thA := sched.Spawn(new(uthread.Thread), "thread-A", 0)
	sched.Spawn(new(uthread.Thread), "thread-B", 0)
	fmt.Println("2. two user-level threads spawned; A will store to a flash-only page")

	// Thread A: r1 <- page 5 base (flash-only), r2 <- 42, store, then
	// speculative younger work.
	sched.PickNext(0)
	core.Issue(cpu.Inst{Op: cpu.OpConst, Dest: 1, Imm: uint64(mem.PageBase(5))})
	core.Issue(cpu.Inst{Op: cpu.OpConst, Dest: 2, Imm: 42})
	core.Issue(cpu.Inst{Op: cpu.OpStore, Rs1: 1, Rs2: 2})
	core.RetireAll()
	fmt.Printf("3. A's store retired into the SB (occupancy %d); mappings stay journaled (ASO)\n",
		core.SBOccupancy())

	core.Issue(cpu.Inst{Op: cpu.OpConst, Dest: 2, Imm: 777}) // younger speculative work
	core.Issue(cpu.Inst{Op: cpu.OpAdd, Dest: 3, Rs1: 2, Rs2: 2})
	fmt.Printf("4. younger instructions run speculatively past the store (ROB %d, r2 now %d)\n",
		core.ROBOccupancy(), core.Reg(2))

	// The DRAM cache reports a miss for the store's page.
	sb := core.SBEntry(0)
	fmt.Printf("5. DRAM-cache MISS for page %d — miss signal rides the ECC-error path to the core\n",
		mem.PageOf(sb.Addr))
	flushCost := core.AbortStore(0)
	fmt.Printf("6. committed store ABORTED from the SB: registers rolled back (r2 = %d again),\n",
		core.Reg(2))
	fmt.Printf("   pipeline flushed (%d ns), PC -> handler (%#x), resume register = store's PC %d\n",
		flushCost, core.PC(), core.ResumePC())
	if pm.data[mem.PageBase(5)] != 0 {
		panic("aborted store leaked to memory")
	}
	fmt.Println("   memory untouched by the aborted store ✓")

	savedRegs := core.ArchState()
	savedPC := core.ResumePC()
	sched.OnMiss(100)
	fmt.Printf("7. scheduler parks A in the pending queue (%d pending) and switches in ~%d ns\n",
		sched.QueuedPending(), sched.Config().SwitchCost)

	thB := sched.PickNext(100)
	fmt.Printf("8. %v runs while A's page travels from flash (~50 us)\n", thB.Payload)
	core.Issue(cpu.Inst{Op: cpu.OpConst, Dest: 1, Imm: uint64(mem.PageBase(7))})
	core.Issue(cpu.Inst{Op: cpu.OpConst, Dest: 2, Imm: 9})
	core.Issue(cpu.Inst{Op: cpu.OpStore, Rs1: 1, Rs2: 2})
	core.RetireAll()
	core.DrainAllStores()
	sched.Finish()
	fmt.Printf("   B stored %d to resident page 7 and finished\n", pm.data[mem.PageBase(7)])

	pm.resident[5] = true
	sched.NotifyReady(thA, 50_100)
	fmt.Println("9. BC installs A's page and the queue-pair notification marks A ready")

	got := sched.PickNext(50_200)
	core.RestoreArchState(savedRegs)
	core.SetResume(savedPC, true)
	core.Resume()
	fmt.Printf("10. %v resumes at PC %d with the FORWARD-PROGRESS bit set\n", got.Payload, core.PC())

	core.Issue(cpu.Inst{Op: cpu.OpStore, Rs1: 1, Rs2: 2})
	core.RetireAll()
	core.DrainAllStores() // completes synchronously even if it missed again
	core.ClearForwardProgress()
	sched.Finish()
	fmt.Printf("11. the replayed store completes: page 5 = %d ✓\n", pm.data[mem.PageBase(5)])

	if msg := core.CheckInvariants(); msg != "" {
		panic(msg)
	}
	fmt.Println("\ncore invariants hold: no physical register both mapped and free.")
	fmt.Printf("stats: %d store abort, %d pipeline flushes, %d thread switches\n",
		core.StoreAborts.Value(), core.Flushes.Value(), sched.SwitchCount.Value())
}
