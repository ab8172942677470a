package dramcache

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"unsafe"

	"astriflash/internal/dram"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

func newCache(t *testing.T, pages uint64) (*sim.Engine, *Cache, *flash.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(pages), dev, fl)
	return eng, c, fl
}

// access probes the cache and runs done with the reply at its instant.
func access(c *Cache, a mem.Access, done func(Result)) {
	r := c.AccessSync(a)
	c.eng.At(r.At, func() { done(r) })
}

// resident counts c's valid pages.
func resident(c *Cache) int {
	n := 0
	for _, l := range c.lines {
		if l.valid {
			n++
		}
	}
	return n
}

// accessVictim reads page p, runs the engine dry and returns the page
// that left p's set, found by residency; ok is false when none left.
func accessVictim(c *Cache, p mem.PageNum) (gone mem.PageNum, ok bool) {
	var before []mem.PageNum
	for _, l := range c.set(c.setOf(p)) {
		if l.valid {
			before = append(before, l.page)
		}
	}
	access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
	c.eng.Run()
	for _, q := range before {
		if !c.Contains(q) {
			return q, true
		}
	}
	return 0, false
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
	access(c, mem.Access{Addr: mem.PageBase(7)}, func(r Result) { first = r })
	eng.Run()
	if first.Hit {
		t.Fatal("cold access hit")
	}
	if !c.Contains(7) {
		t.Fatal("page not installed after miss completed")
	}
	access(c, mem.Access{Addr: mem.PageBase(7) + 64}, func(r Result) { second = r })
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
	access(c, mem.Access{Addr: mem.PageBase(3)}, func(r Result) { hitAt = r.At })
	eng.Run()
	hitLat := hitAt - start
	if hitLat <= 0 || hitLat > 500 {
		t.Fatalf("hit latency = %d ns, want ns-scale (<500)", hitLat)
	}
	// Miss signal turnaround must also be ns-scale; the flash wait is
	// not part of the reply.
	var missAt sim.Time
	access(c, mem.Access{Addr: mem.PageBase(999)}, func(r Result) { missAt = r.At })
	prev := eng.Now()
	eng.Run()
	if missAt-prev > 1000 {
		t.Fatalf("miss signal took %d ns; it must not wait for flash", missAt-prev)
	}
}

func TestOnPageReadyFiresAfterFlashLatency(t *testing.T) {
	eng, c, _ := newCache(t, 64)
	var missSignal, ready sim.Time
	access(c, mem.Access{Addr: mem.PageBase(11)}, func(r Result) { missSignal = r.At })
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
		access(c, mem.Access{Addr: mem.PageBase(21)}, func(Result) {})
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
		access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	if n := resident(c); n > 8 {
		t.Fatalf("resident = %d, exceeds capacity 8", n)
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
		access(c, mem.Access{Addr: mem.PageBase(p), Write: true}, func(Result) {})
		eng.Run()
		// Touch again to mark resident copy dirty via a write hit.
		access(c, mem.Access{Addr: mem.PageBase(p), Write: true}, func(Result) {})
		eng.Run()
	}
	if c.DirtyWB.Value() == 0 {
		t.Fatal("dirty evictions produced no flash writebacks")
	}
	if fl.Writes.Value() == 0 {
		t.Fatal("flash never saw a writeback")
	}
}

// TestEvictedPagesLeaveTheCache overflows one 8-way set and checks that
// every eviction takes exactly one page out of the set.
func TestEvictedPagesLeaveTheCache(t *testing.T) {
	_, c, _ := newCache(t, 8)
	var evicted []mem.PageNum
	for p := mem.PageNum(0); p < 12; p++ {
		if gone, ok := accessVictim(c, p); ok {
			evicted = append(evicted, gone)
		}
	}
	if len(evicted) != 4 || c.Evictions.Value() != 4 {
		t.Fatalf("evicted %v, Evictions %d: want 4 pages gone", evicted, c.Evictions.Value())
	}
	if n := resident(c); n != 8 {
		t.Fatalf("resident = %d, want a full set of 8", n)
	}
}

// TestTouchOnEvictedPageIsNoOp pins the non-inclusive rule: the on-chip
// LLC can hit a page the DRAM cache has evicted, and the Touch that hit
// makes must leave the page absent, change no counter and not move the
// LRU clock, so the victims that follow match a run without the Touch.
func TestTouchOnEvictedPageIsNoOp(t *testing.T) {
	type victim struct {
		page mem.PageNum
		ok   bool
	}
	type counters struct {
		acc                                stats.Ratio
		ev, wb, inst, merged, byp, bypHits uint64
		stamp                              uint64
	}
	snap := func(c *Cache) counters {
		return counters{c.Accesses, c.Evictions.Value(), c.DirtyWB.Value(), c.Installs.Value(),
			c.MergedMiss.Value(), c.AdmBypassed.Value(), c.BypassHits.Value(), c.stamp}
	}
	run := func(touch bool) []victim {
		_, c, _ := newCache(t, 8)
		for p := mem.PageNum(0); p < 8; p++ {
			accessVictim(c, p)
		}
		if gone, ok := accessVictim(c, 8); !ok || gone != 0 {
			t.Fatalf("victim = %d (%v), want LRU page 0", gone, ok)
		}
		if touch {
			before := snap(c)
			c.Touch(0)
			if c.Contains(0) {
				t.Fatal("Touch installed the evicted page 0")
			}
			if after := snap(c); after != before {
				t.Fatalf("Touch on an evicted page moved counters: %+v, then %+v", before, after)
			}
		}
		var out []victim
		for _, p := range []mem.PageNum{9, 1, 10, 0, 11, 12, 2, 13} {
			gone, ok := accessVictim(c, p)
			out = append(out, victim{gone, ok})
		}
		return out
	}
	if with, without := run(true), run(false); !reflect.DeepEqual(with, without) {
		t.Fatalf("victims after Touch %v, without it %v", with, without)
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
		access(c, mem.Access{Addr: mem.PageBase(pp)}, func(Result) {})
		c.OnPageReady(pp, func(any, sim.Time) { done++ }, nil)
	}
	eng.Run()
	if done != 6 {
		t.Fatalf("completed %d misses, want 6 (stalled misses must drain)", done)
	}
	if c.msr.FullWaits.Value() == 0 {
		t.Fatal("expected MSR full stalls with 6 misses over 2 entries")
	}
	if c.PendingMisses() != 0 {
		t.Fatalf("pending misses = %d after drain", c.PendingMisses())
	}
}

func TestLRUVictimSelection(t *testing.T) {
	_, c, _ := newCache(t, 8)
	// Install pages 0..7 (fills the single set), touch 0..6 again so 7
	// is LRU, then bring in page 100: victim must be 7.
	for p := mem.PageNum(0); p < 8; p++ {
		accessVictim(c, p)
	}
	for p := mem.PageNum(0); p < 7; p++ {
		accessVictim(c, p)
	}
	if gone, ok := accessVictim(c, 100); !ok || gone != 7 {
		t.Fatalf("victim = %d (%v), want LRU page 7", gone, ok)
	}
}

// TestPinsSteerVictimsAndStayMirrored pins a resident page, a page
// about to be installed, and then every way of a set, and checks after
// each step that victim selection skips pinned lines while any way is
// unpinned and that each resident line's pin count equals the pin map.
func TestPinsSteerVictimsAndStayMirrored(t *testing.T) {
	_, c, _ := newCache(t, 8) // one set of 8 ways
	check := func(when string) {
		t.Helper()
		if msg := c.CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", when, msg)
		}
	}
	for p := mem.PageNum(0); p < 8; p++ {
		accessVictim(c, p)
	}
	c.Pin(0) // resident and least recently used
	c.Pin(0)
	check("after pinning resident page 0 twice")
	if gone, ok := accessVictim(c, 100); !ok || gone != 1 {
		t.Fatalf("victim = %d (%v), want page 1: page 0 is pinned", gone, ok)
	}
	c.Unpin(0)
	check("after one unpin")
	if gone, ok := accessVictim(c, 101); !ok || gone != 2 {
		t.Fatalf("victim = %d (%v), want page 2: page 0 is still pinned", gone, ok)
	}
	c.Unpin(0)
	c.Pin(102) // not resident: the install must carry the pin
	if gone, ok := accessVictim(c, 102); !ok || gone != 0 {
		t.Fatalf("victim = %d (%v), want page 0 once unpinned", gone, ok)
	}
	check("after installing pinned page 102")
	for _, l := range c.set(0) {
		c.Pin(l.page)
	}
	check("with every way pinned")
	// Every way is pinned: the victim ignores pins, and the evicted
	// page's pins outlive its residency until it is installed again.
	gone, ok := accessVictim(c, 103)
	if !ok {
		t.Fatal("no victim with every way pinned")
	}
	check("after evicting a pinned page")
	if c.pinned[gone] == 0 {
		t.Fatalf("evicted page %d lost its pins", gone)
	}
	accessVictim(c, gone)
	check("after reinstalling the pinned page")
}

// TestLineLayout pins a tag-store line at 32 bytes: the pin count lives
// in what would otherwise be padding.
func TestLineLayout(t *testing.T) {
	if got := unsafe.Sizeof(line{}); got != 32 {
		t.Fatalf("line is %d bytes, want 32", got)
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
			access(c, mem.Access{Addr: mem.PageBase(p)}, func(r Result) { out = append(out, r.At) })
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
		accessVictim(c, p)
	}
	for i := 0; i < 10; i++ {
		accessVictim(c, 0)
	}
	if gone, ok := accessVictim(c, 100); !ok || gone != 0 {
		t.Fatalf("FIFO victim = %d (%v), want oldest page 0", gone, ok)
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
		access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	if n := resident(c); n > 16 {
		t.Fatalf("resident = %d exceeds capacity", n)
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
