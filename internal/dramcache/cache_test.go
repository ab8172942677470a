package dramcache

import (
	"fmt"
	"strings"
	"testing"

	"astriflash/internal/dram"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func newCache(t *testing.T, pages uint64) (*sim.Engine, *Cache, *flash.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(pages), dev, fl)
	return eng, c, fl
}

func TestMSRAllocateLifecycle(t *testing.T) {
	m := NewMSR(4, 2)
	if r := m.Allocate(10); r != AllocNew {
		t.Fatalf("first allocate = %v, want new", r)
	}
	if r := m.Allocate(10); r != AllocDup {
		t.Fatalf("duplicate allocate = %v, want dup", r)
	}
	if !m.Lookup(10) {
		t.Fatal("lookup missed tracked page")
	}
	m.Complete(10)
	if m.Lookup(10) {
		t.Fatal("completed page still tracked")
	}
	if m.Outstanding() != 0 {
		t.Fatalf("outstanding = %d", m.Outstanding())
	}
}

func TestMSRSetFull(t *testing.T) {
	m := NewMSR(1, 2)
	m.Allocate(1)
	m.Allocate(2)
	if r := m.Allocate(3); r != AllocFull {
		t.Fatalf("allocate into full set = %v, want full", r)
	}
	if m.FullWaits.Value() != 1 {
		t.Fatal("full wait not counted")
	}
	m.Complete(1)
	if r := m.Allocate(3); r != AllocNew {
		t.Fatalf("allocate after free = %v, want new", r)
	}
}

func TestMSRCompleteUntrackedPanics(t *testing.T) {
	m := NewMSR(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("completing untracked page did not panic")
		}
	}()
	m.Complete(42)
}

func TestMSRResultString(t *testing.T) {
	for r, want := range map[AllocResult]string{AllocNew: "new", AllocDup: "dup", AllocFull: "full"} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q", int(r), r.String())
		}
	}
}

func TestCacheMissThenHit(t *testing.T) {
	eng, c, _ := newCache(t, 64)
	var first, second Result
	c.Access(mem.Access{Addr: mem.PageBase(7)}, func(r Result) { first = r })
	eng.Run()
	if first.Hit {
		t.Fatal("cold access hit")
	}
	if !c.Contains(7) {
		t.Fatal("page not installed after miss completed")
	}
	c.Access(mem.Access{Addr: mem.PageBase(7) + 64}, func(r Result) { second = r })
	eng.Run()
	if !second.Hit {
		t.Fatal("access after install missed")
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestHitLatencyIsNsScaleMissSignalFast(t *testing.T) {
	eng, c, _ := newCache(t, 64)
	c.Preload(3)
	start := eng.Now()
	var hitAt sim.Time
	c.Access(mem.Access{Addr: mem.PageBase(3)}, func(r Result) { hitAt = r.At })
	eng.Run()
	hitLat := hitAt - start
	if hitLat <= 0 || hitLat > 500 {
		t.Fatalf("hit latency = %d ns, want ns-scale (<500)", hitLat)
	}
	// Miss signal turnaround must also be ns-scale; the flash wait is
	// not part of the reply.
	var missAt sim.Time
	c.Access(mem.Access{Addr: mem.PageBase(999)}, func(r Result) { missAt = r.At })
	prev := eng.Now()
	eng.Run()
	if missAt-prev > 1000 {
		t.Fatalf("miss signal took %d ns; it must not wait for flash", missAt-prev)
	}
}

func TestOnPageReadyFiresAfterFlashLatency(t *testing.T) {
	eng, c, _ := newCache(t, 64)
	var missSignal, ready sim.Time
	c.Access(mem.Access{Addr: mem.PageBase(11)}, func(r Result) { missSignal = r.At })
	c.OnPageReady(11, func(_ any, at sim.Time) { ready = at }, nil)
	eng.Run()
	if ready == 0 {
		t.Fatal("page-ready callback never fired")
	}
	if ready-missSignal < 40_000 {
		t.Fatalf("page arrived after %d ns; expected >= flash read latency", ready-missSignal)
	}
}

func TestOnPageReadyForResidentPage(t *testing.T) {
	eng, c, _ := newCache(t, 64)
	c.Preload(5)
	fired := false
	c.OnPageReady(5, func(any, sim.Time) { fired = true }, nil)
	eng.Run()
	if !fired {
		t.Fatal("callback for resident page never fired")
	}
}

func TestDuplicateMissesMerge(t *testing.T) {
	eng, c, fl := newCache(t, 64)
	for i := 0; i < 4; i++ {
		c.Access(mem.Access{Addr: mem.PageBase(21)}, func(Result) {})
	}
	woken := 0
	c.OnPageReady(21, func(any, sim.Time) { woken++ }, nil)
	eng.Run()
	if fl.Reads.Value() != 1 {
		t.Fatalf("flash reads = %d, want 1 (merged misses)", fl.Reads.Value())
	}
	if c.MergedMiss.Value() != 3 {
		t.Fatalf("merged = %d, want 3", c.MergedMiss.Value())
	}
	if woken != 1 {
		t.Fatalf("woken = %d, want 1", woken)
	}
}

func TestEvictionMakesRoom(t *testing.T) {
	eng, c, _ := newCache(t, 8) // 1 set x 8 ways
	// Fill beyond capacity.
	for p := mem.PageNum(0); p < 12; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	if c.Resident() > 8 {
		t.Fatalf("resident = %d, exceeds capacity 8", c.Resident())
	}
	if c.Evictions.Value() == 0 {
		t.Fatal("no evictions despite overflow")
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	eng, c, fl := newCache(t, 8)
	// Dirty every page, then overflow the set.
	for p := mem.PageNum(0); p < 12; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p), Write: true}, func(Result) {})
		eng.Run()
		// Touch again to mark resident copy dirty via a write hit.
		c.Access(mem.Access{Addr: mem.PageBase(p), Write: true}, func(Result) {})
		eng.Run()
	}
	if c.DirtyWB.Value() == 0 {
		t.Fatal("dirty evictions produced no flash writebacks")
	}
	if fl.Writes.Value() == 0 {
		t.Fatal("flash never saw a writeback")
	}
}

func TestOnEvictCoherenceHook(t *testing.T) {
	eng, c, _ := newCache(t, 8)
	var evicted []mem.PageNum
	c.OnEvict = func(p mem.PageNum) { evicted = append(evicted, p) }
	for p := mem.PageNum(0); p < 12; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	if len(evicted) == 0 {
		t.Fatal("OnEvict never fired")
	}
}

func TestMSRFullStallsThenDrains(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	cfg := DefaultConfig(1024)
	cfg.MSRSets, cfg.MSRWays = 1, 2 // tiny MSR: 2 concurrent misses
	c := New(eng, cfg, dev, fl)
	done := 0
	for p := mem.PageNum(0); p < 6; p++ {
		pp := p
		c.Access(mem.Access{Addr: mem.PageBase(pp)}, func(Result) {})
		c.OnPageReady(pp, func(any, sim.Time) { done++ }, nil)
	}
	eng.Run()
	if done != 6 {
		t.Fatalf("completed %d misses, want 6 (stalled misses must drain)", done)
	}
	if c.MSRTable().FullWaits.Value() == 0 {
		t.Fatal("expected MSR full stalls with 6 misses over 2 entries")
	}
	if c.PendingMisses() != 0 {
		t.Fatalf("pending misses = %d after drain", c.PendingMisses())
	}
}

func TestLRUVictimSelection(t *testing.T) {
	eng, c, _ := newCache(t, 8)
	// Install pages 0..7 (fills the single set), touch 0..6 again so 7
	// is LRU, then bring in page 100: victim must be 7.
	for p := mem.PageNum(0); p < 8; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	for p := mem.PageNum(0); p < 7; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	var gone mem.PageNum
	c.OnEvict = func(p mem.PageNum) { gone = p }
	c.Access(mem.Access{Addr: mem.PageBase(100)}, func(Result) {})
	eng.Run()
	if gone != 7 {
		t.Fatalf("victim = %d, want LRU page 7", gone)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	New(eng, Config{Pages: 10, Ways: 8}, dev, fl) // 10 not divisible by 8
}

func TestDeterministicRefills(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine()
		dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
		fl := flash.NewDevice(eng, flash.DefaultConfig())
		c := New(eng, DefaultConfig(64), dev, fl)
		rng := sim.NewRNG(5)
		var out []int64
		for i := 0; i < 100; i++ {
			p := mem.PageNum(rng.Intn(200))
			c.Access(mem.Access{Addr: mem.PageBase(p)}, func(r Result) { out = append(out, r.At) })
			c.OnPageReady(p, func(_ any, at sim.Time) { out = append(out, at) }, nil)
			eng.Run()
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("nondeterministic event counts")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("event %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestReplacementPolicyStrings(t *testing.T) {
	for r, want := range map[Replacement]string{ReplLRU: "lru", ReplFIFO: "fifo", ReplRandom: "random"} {
		if r.String() != want {
			t.Fatalf("%d.String() = %q", int(r), r.String())
		}
	}
	if Replacement(9).String() == "" {
		t.Fatal("unknown policy should render")
	}
}

func TestFIFOEvictsOldestDespiteReuse(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	cfg := DefaultConfig(16) // one 16-way set
	cfg.Replacement = ReplFIFO
	c := New(eng, cfg, dev, fl)
	// Install pages 0..15 in order, then touch page 0 repeatedly: under
	// LRU it would be protected, under FIFO it is still the oldest.
	for p := mem.PageNum(0); p < 16; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	for i := 0; i < 10; i++ {
		c.Access(mem.Access{Addr: mem.PageBase(0)}, func(Result) {})
		eng.Run()
	}
	var gone mem.PageNum = 999
	c.OnEvict = func(p mem.PageNum) { gone = p }
	c.Access(mem.Access{Addr: mem.PageBase(100)}, func(Result) {})
	eng.Run()
	if gone != 0 {
		t.Fatalf("FIFO victim = %d, want oldest page 0", gone)
	}
}

func TestRandomPolicyStaysWithinSet(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	cfg := DefaultConfig(16)
	cfg.Replacement = ReplRandom
	c := New(eng, cfg, dev, fl)
	for p := mem.PageNum(0); p < 64; p++ {
		c.Access(mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	if c.Resident() > 16 {
		t.Fatalf("resident = %d exceeds capacity", c.Resident())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestMissPathAllocFree pins BC's miss → fetch → install → wake cycle at
// zero heap allocations once its pools are warm, with merged misses,
// dirty write-backs and, under hit-economics, bypass-ring installs.
func TestMissPathAllocFree(t *testing.T) {
	for _, policy := range []string{"", "hit-economics"} {
		eng := sim.NewEngine()
		dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
		cfg := DefaultConfig(64)
		cfg.Admission = AdmissionConfig{Policy: policy}
		c := New(eng, cfg, dev, flash.NewDevice(eng, flash.DefaultConfig()))
		woken := 0
		wake := func(any, sim.Time) { woken++ }
		p, cold := mem.PageNum(0), mem.PageNum(0)
		access := func(p mem.PageNum, write bool) {
			if !c.AccessSync(mem.Access{Addr: mem.PageBase(p), Write: write}).Hit {
				c.OnPageReady(p, wake, nil)
			}
		}
		cycle := func() {
			for i := 0; i < 8; i++ {
				// Two misses per page merge in the MSR; once the batch
				// lands, writes dirty it so its eviction writes back.
				for j := 0; j < 8; j++ {
					access((p+mem.PageNum(37*j))%512, false)
					access((p+mem.PageNum(37*j))%512, false)
				}
				// A page touched once in a long while: hit-economics
				// sends its fetch to the bypass ring.
				cold = (cold + 1) % 256
				access(1024+cold, false)
				eng.Run()
				for j := 0; j < 8; j++ {
					access((p+mem.PageNum(37*j))%512, true)
				}
				eng.Run()
				p = (p + 37*8) % 512
			}
		}
		for i := 0; i < 64; i++ {
			cycle()
		}
		if got := testing.AllocsPerRun(20, cycle); got != 0 {
			t.Errorf("policy %q: %.1f allocations per cycle, want 0", policy, got)
		}
		if c.MergedMiss.Value() == 0 || c.DirtyWB.Value()+c.BypassDirtyWB.Value() == 0 || woken == 0 {
			t.Errorf("policy %q: merged %d, write-backs %d, wakes %d: want all exercised",
				policy, c.MergedMiss.Value(), c.DirtyWB.Value()+c.BypassDirtyWB.Value(), woken)
		}
		if policy != "" && c.AdmBypassed.Value() == 0 {
			t.Errorf("policy %q: no fetch went to the bypass ring", policy)
		}
		if msg := c.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
	}
}

// TestReleasedFetchRecordPanics shows the fetch-record guard trips: an
// event naming a record that has returned to the pool is a bug.
func TestReleasedFetchRecordPanics(t *testing.T) {
	_, c, _ := newCache(t, 64)
	f := c.newFetch(3, 0)
	f.refs = 1
	c.unref(f)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "released fetch record") {
			t.Fatalf("stale fire: recovered %v, want the released-record panic", r)
		}
	}()
	readEvent(f)
}
