package dramcache

import (
	"testing"

	"astriflash/internal/dram"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// newFaultyCache builds a cache over a device whose every read is
// deterministically uncorrectable (RBER 0.5 floods each page with raw
// errors far past the ECC strength).
func newFaultyCache(t *testing.T, retries int, timeoutNs int64) (*sim.Engine, *Cache, *flash.Device) {
	t.Helper()
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fcfg := flash.DefaultConfig()
	fcfg.RBER = 0.5
	fcfg.Seed = 71
	fl := flash.NewDevice(eng, fcfg)
	cfg := DefaultConfig(64)
	cfg.FlashReadRetries = retries
	cfg.FlashReadTimeoutNs = timeoutNs
	c := New(eng, cfg, dev, fl)
	return eng, c, fl
}

func TestUncorrectableMissRetriesThenFallsBack(t *testing.T) {
	eng, c, fl := newFaultyCache(t, 2, 0)
	p := mem.PageNum(9)
	access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
	eng.Run()
	if !c.Contains(p) {
		t.Fatal("miss never completed: page not installed after fallback")
	}
	// Every ReadPage attempt is uncorrectable: initial + 2 retries, then
	// the recovered-copy fallback completes the miss.
	if got := c.FlashUncorrectable.Value(); got != 3 {
		t.Fatalf("uncorrectable completions = %d, want 3", got)
	}
	if got := c.FlashRetries.Value(); got != 2 {
		t.Fatalf("BC retries = %d, want 2", got)
	}
	if got := c.FlashFallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	if got := fl.RecoveredReads.Value(); got != 1 {
		t.Fatalf("device recovered reads = %d, want 1", got)
	}
	if c.FlashTimeouts.Value() != 0 {
		t.Fatalf("timeouts = %d with no watchdog armed", c.FlashTimeouts.Value())
	}
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("cache invariants: %s", msg)
	}
}

func TestZeroRetriesFallsBackImmediately(t *testing.T) {
	eng, c, _ := newFaultyCache(t, 0, 0)
	p := mem.PageNum(4)
	access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
	eng.Run()
	if !c.Contains(p) {
		t.Fatal("page not installed")
	}
	if c.FlashRetries.Value() != 0 || c.FlashFallbacks.Value() != 1 {
		t.Fatalf("retries=%d fallbacks=%d, want 0/1", c.FlashRetries.Value(), c.FlashFallbacks.Value())
	}
}

func TestWatchdogTimeoutReissuesRead(t *testing.T) {
	// A watchdog window shorter than the cell read guarantees the timeout
	// fires before the flash completion: the re-issued attempts each time
	// out too, and the exhausted budget falls back to the recovered copy.
	eng := sim.NewEngine()
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	fcfg := flash.DefaultConfig() // fault-free: reads complete, but late
	fl := flash.NewDevice(eng, fcfg)
	cfg := DefaultConfig(64)
	cfg.FlashReadRetries = 1
	cfg.FlashReadTimeoutNs = fcfg.ReadLatency / 4
	c := New(eng, cfg, dev, fl)

	p := mem.PageNum(17)
	access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
	eng.Run()
	if !c.Contains(p) {
		t.Fatal("page not installed after timeouts")
	}
	if got := c.FlashTimeouts.Value(); got != 2 {
		t.Fatalf("timeouts = %d, want 2 (initial + one retry)", got)
	}
	if got := c.FlashRetries.Value(); got != 1 {
		t.Fatalf("BC retries = %d, want 1", got)
	}
	if got := c.FlashFallbacks.Value(); got != 1 {
		t.Fatalf("fallbacks = %d, want 1", got)
	}
	// Late arrivals from abandoned attempts were dropped, not installed
	// twice; the cache stays consistent.
	if msg := c.CheckInvariants(); msg != "" {
		t.Fatalf("cache invariants: %s", msg)
	}
}

func TestWatchdogDisabledOnFaultFreeDeviceIsInvisible(t *testing.T) {
	// With no watchdog and no faults, the fault-path counters stay zero
	// and misses complete exactly as before the fault layer existed.
	eng, c, _ := newCache(t, 64)
	p := mem.PageNum(30)
	access(c, mem.Access{Addr: mem.PageBase(p)}, func(Result) {})
	eng.Run()
	if !c.Contains(p) {
		t.Fatal("miss did not complete")
	}
	if c.FlashRetries.Value()+c.FlashTimeouts.Value()+
		c.FlashUncorrectable.Value()+c.FlashFallbacks.Value() != 0 {
		t.Fatal("fault-path counters nonzero on fault-free run")
	}
}
