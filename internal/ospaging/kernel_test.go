package ospaging

import (
	"testing"

	"astriflash/internal/sim"
	"astriflash/internal/tlbvm"
)

func newKernel(cores int) (*sim.Engine, *Kernel) {
	eng := sim.NewEngine()
	return eng, NewKernel(eng, DefaultCosts(), tlbvm.DefaultShootdownModel(), cores)
}

func TestPageFaultChargesEntryPath(t *testing.T) {
	_, k := newKernel(16)
	done := k.PageFault(0)
	if done != DefaultCosts().PageFaultEntry {
		t.Fatalf("fault done at %d, want %d", done, DefaultCosts().PageFaultEntry)
	}
	if k.Faults.Value() != 1 {
		t.Fatal("fault not counted")
	}
}

func TestInstallIncludesShootdown(t *testing.T) {
	_, k := newKernel(16)
	done := k.InstallPage(0)
	sd := tlbvm.DefaultShootdownModel().Latency(16)
	want := DefaultCosts().PTEUpdate + DefaultCosts().InstallLockNs + sd
	if done != want {
		t.Fatalf("install done at %d, want %d", done, want)
	}
	if k.Shootdowns.Value() != 1 {
		t.Fatal("shootdown not counted")
	}
	// Shootdown latency must grow with core count.
	_, k64 := newKernel(64)
	if k64.InstallPage(0) <= done {
		t.Fatal("install cost did not grow with core count")
	}
}

func TestVMLockSerializesFaultSlices(t *testing.T) {
	_, k := newKernel(16)
	// Two faults at the same instant from different cores overlap their
	// per-core work but serialize the locked slice.
	d1 := k.PageFault(0)
	d2 := k.PageFault(0)
	if d1 != DefaultCosts().PageFaultEntry {
		t.Fatalf("first fault done at %d, want %d", d1, DefaultCosts().PageFaultEntry)
	}
	if d2 != d1+DefaultCosts().FaultLockNs {
		t.Fatalf("second fault done at %d, want lock-slice delay to %d",
			d2, d1+DefaultCosts().FaultLockNs)
	}
	if k.LockWait.Max() == 0 {
		t.Fatal("lock wait not recorded")
	}
}

func TestLockContentionGrowsWithConcurrency(t *testing.T) {
	// The non-scaling of Figure 2: N simultaneous faults queue on the
	// locked slice, so the last one pays ~N lock slices.
	_, k := newKernel(64)
	var last sim.Time
	const n = 32
	for i := 0; i < n; i++ {
		last = k.PageFault(0)
	}
	want := DefaultCosts().PageFaultEntry + int64(n-1)*DefaultCosts().FaultLockNs
	if last < want {
		t.Fatalf("last of %d faults at %d; expected lock queueing to %d", n, last, want)
	}
}

func TestFaultAndInstallShareLock(t *testing.T) {
	_, k := newKernel(4)
	d1 := k.PageFault(0)
	d2 := k.InstallPage(0)
	if d2 <= d1 {
		t.Fatal("install did not wait for fault holding the lock")
	}
}

// TestPerMissOverheadIsMicrosecondScale checks the core-side cost of a
// miss under OS paging, lock contention aside: fault entry plus two
// context switches' amortized share (the paper charges ~10 us combined).
func TestPerMissOverheadIsMicrosecondScale(t *testing.T) {
	_, k := newKernel(16)
	oh := k.costs.PageFaultEntry + k.ContextSwitch()
	if oh < 5_000 || oh > 20_000 {
		t.Fatalf("per-miss overhead = %d ns, want ~10 us", oh)
	}
	if k.ContextSwitch() != DefaultCosts().ContextSwitch {
		t.Fatal("context switch cost mismatch")
	}
}

func TestKernelValidation(t *testing.T) {
	eng := sim.NewEngine()
	bad := DefaultCosts()
	bad.ContextSwitch = -1
	badLock := DefaultCosts()
	badLock.FaultLockNs = badLock.PageFaultEntry + 1
	for name, f := range map[string]func(){
		"bad-costs":         func() { NewKernel(eng, bad, tlbvm.DefaultShootdownModel(), 4) },
		"lock-exceeds-path": func() { NewKernel(eng, badLock, tlbvm.DefaultShootdownModel(), 4) },
		"bad-sd":            func() { NewKernel(eng, DefaultCosts(), tlbvm.ShootdownModel{BaseNs: -1}, 4) },
		"no-cores":          func() { NewKernel(eng, DefaultCosts(), tlbvm.DefaultShootdownModel(), 0) },
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestRunQueueFIFO(t *testing.T) {
	q := NewRunQueue()
	a := q.Spawn(new(Task), "a", 0)
	b := q.Spawn(new(Task), "b", 0)
	if q.PickNext() != a {
		t.Fatal("FIFO order violated")
	}
	blocked := q.Block(10)
	if blocked != a || blocked.BlockedAt != 10 {
		t.Fatalf("blocked = %+v", blocked)
	}
	if q.PickNext() != b {
		t.Fatal("next runnable not picked")
	}
	q.Finish()
	q.Wake(a)
	if q.PickNext() != a {
		t.Fatal("woken task not schedulable")
	}
	if q.Switches.Value() != 1 {
		t.Fatalf("switches = %d", q.Switches.Value())
	}
}

func TestRunQueueEmpty(t *testing.T) {
	q := NewRunQueue()
	if q.PickNext() != nil {
		t.Fatal("empty queue returned a task")
	}
	if q.Runnable() != 0 {
		t.Fatal("empty queue reports runnable tasks")
	}
}

func TestRunQueueMisusePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"block-idle":  func() { NewRunQueue().Block(0) },
		"finish-idle": func() { NewRunQueue().Finish() },
		"double-pick": func() {
			q := NewRunQueue()
			q.Spawn(new(Task), "a", 0)
			q.Spawn(new(Task), "b", 0)
			q.PickNext()
			q.PickNext()
		},
	} {
		name, f := name, f
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestShootdownBatching(t *testing.T) {
	eng := sim.NewEngine()
	costs := DefaultCosts()
	costs.ShootdownBatch = 4
	k := NewKernel(eng, costs, tlbvm.DefaultShootdownModel(), 16)
	// Three installs join the batch without a broadcast; the fourth pays.
	for i := 0; i < 3; i++ {
		k.InstallPage(sim.Time(i * 100_000))
		if k.Shootdowns.Value() != 0 {
			t.Fatalf("shootdown fired before batch filled (install %d)", i)
		}
	}
	k.InstallPage(400_000)
	if k.Shootdowns.Value() != 1 {
		t.Fatalf("shootdowns = %d after full batch, want 1", k.Shootdowns.Value())
	}
	if k.Installs.Value() != 4 {
		t.Fatalf("installs = %d", k.Installs.Value())
	}
	// The batched install is cheaper on average than unbatched.
	unbatched := NewKernel(sim.NewEngine(), DefaultCosts(), tlbvm.DefaultShootdownModel(), 16)
	ub := unbatched.InstallPage(0)
	bd := NewKernel(sim.NewEngine(), costs, tlbvm.DefaultShootdownModel(), 16).InstallPage(0)
	if bd >= ub {
		t.Fatalf("first batched install %d not cheaper than unbatched %d", bd, ub)
	}
}
