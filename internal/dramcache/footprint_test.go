package dramcache

import (
	"testing"

	"astriflash/internal/dram"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func newFPCache(t *testing.T) (*sim.Engine, *Cache) {
	t.Helper()
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(64), dev, fl)
	c.EnableFootprint(DefaultFootprintConfig())
	return eng, c
}

func TestBlockSetBasics(t *testing.T) {
	var b blockSet
	if b.count() != 0 {
		t.Fatal("empty set has members")
	}
	b.set(0)
	b.set(63)
	b.set(63) // idempotent
	if !b.has(0) || !b.has(63) || b.has(5) {
		t.Fatal("membership wrong")
	}
	if b.count() != 2 {
		t.Fatalf("count = %d", b.count())
	}
}

func TestFootprintFetchesPartialPage(t *testing.T) {
	eng, c := newFPCache(t)
	addr := mem.PageBase(9) // no history: default window
	access(c, mem.Access{Addr: addr}, func(Result) {})
	eng.Run()
	fp := c.Footprint()
	if fp.BlocksFetched.Value() == 0 {
		t.Fatal("no blocks fetched")
	}
	if fp.BlocksSaved.Value() == 0 {
		t.Fatal("footprint fetch saved no transfer")
	}
}

func TestFootprintHitOnFetchedBlock(t *testing.T) {
	eng, c := newFPCache(t)
	addr := mem.PageBase(3)
	access(c, mem.Access{Addr: addr}, func(Result) {})
	eng.Run()
	var hit bool
	access(c, mem.Access{Addr: addr}, func(r Result) { hit = r.Hit })
	eng.Run()
	if !hit {
		t.Fatal("access to fetched block missed")
	}
	if c.Footprint().Underpredictions.Value() != 0 {
		t.Fatal("false underprediction")
	}
}

func TestFootprintUnderprediction(t *testing.T) {
	eng, c := newFPCache(t)
	base := mem.PageBase(7)
	// First access at block 0 fetches the default window [0, 32).
	access(c, mem.Access{Addr: base}, func(Result) {})
	eng.Run()
	// Block 40 was not fetched: underprediction, miss signal, then a
	// secondary fetch makes it resident.
	far := base + mem.Addr(40*mem.BlockSize)
	var first Result
	access(c, mem.Access{Addr: far}, func(r Result) { first = r })
	ready := false
	c.OnPageReady(7, func(any, sim.Time) { ready = true }, nil)
	eng.Run()
	if first.Hit {
		t.Fatal("underpredicted block should signal a miss")
	}
	if !ready {
		t.Fatal("secondary fetch never completed")
	}
	if c.Footprint().Underpredictions.Value() != 1 {
		t.Fatalf("underpredictions = %d", c.Footprint().Underpredictions.Value())
	}
	var second Result
	access(c, mem.Access{Addr: far}, func(r Result) { second = r })
	eng.Run()
	if !second.Hit {
		t.Fatal("block still missing after secondary fetch")
	}
}

func TestFootprintLearnsAcrossGenerations(t *testing.T) {
	eng, cFull := newFPCache(t)
	_ = cFull
	eng = sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(8), dev, fl) // 8 pages: evictions guaranteed
	c.EnableFootprint(DefaultFootprintConfig())

	base := mem.PageBase(1)
	touch := func(block uint64) {
		access(c, mem.Access{Addr: base + mem.Addr(block*mem.BlockSize)}, func(Result) {})
		eng.Run()
	}
	// Generation 1: touch blocks 0 and 40 (one underprediction).
	touch(0)
	touch(40)
	// Churn the set until page 1 is evicted.
	for p := mem.PageNum(100); c.Contains(1); p++ {
		access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	before := c.Footprint().Underpredictions.Value()
	// Generation 2: the learned footprint includes block 40, so touching
	// it after the refetch is NOT an underprediction.
	touch(0)
	touch(40)
	if c.Footprint().Underpredictions.Value() != before {
		t.Fatal("footprint history did not prevent the repeat underprediction")
	}
}

func TestFootprintDisabledByDefault(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(64), dev, fl)
	if c.Footprint() != nil {
		t.Fatal("footprint enabled without opt-in")
	}
	// Whole-page semantics: any block of a resident page hits.
	access(c, mem.Access{Addr: mem.PageBase(5)}, func(Result) {})
	eng.Run()
	var hit bool
	access(c, mem.Access{Addr: mem.PageBase(5) + 40*mem.BlockSize}, func(r Result) { hit = r.Hit })
	eng.Run()
	if !hit {
		t.Fatal("whole-page fetch should cover all blocks")
	}
}

func TestFootprintConfigClamps(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(64), dev, fl)
	c.EnableFootprint(FootprintConfig{Enabled: true, HistoryEntries: -1, DefaultBlocks: 1000})
	if c.fp.cfg.HistoryEntries <= 0 {
		t.Fatal("history entries not clamped")
	}
	if c.fp.cfg.DefaultBlocks > 64 {
		t.Fatal("default blocks not clamped")
	}
}

func TestFootprintHistoryBounded(t *testing.T) {
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	c := New(eng, DefaultConfig(8), dev, fl)
	c.EnableFootprint(FootprintConfig{Enabled: true, HistoryEntries: 4, DefaultBlocks: 8})
	// Churn many pages through the tiny cache; history must stay bounded.
	for p := mem.PageNum(0); p < 200; p++ {
		access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
		eng.Run()
	}
	if len(c.fp.history) > 4 {
		t.Fatalf("history grew to %d entries, bound is 4", len(c.fp.history))
	}
}
