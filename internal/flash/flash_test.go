package flash

import (
	"fmt"
	"strings"
	"testing"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func smallConfig() Config {
	c := DefaultConfig()
	c.Channels = 2
	c.DiesPerChannel = 1
	c.PlanesPerDie = 2
	c.BlocksPerPlane = 16
	c.PagesPerBlock = 8
	return c
}

func TestReadLatencyIncludesCellAndTransfer(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	var doneAt int64
	d.Read(0, func(at int64) { doneAt = at })
	eng.Run()
	want := d.cfg.ReadLatency + d.cfg.ChannelTransfer
	if doneAt != want {
		t.Fatalf("read completed at %d, want %d", doneAt, want)
	}
	if d.Reads.Value() != 1 {
		t.Fatal("read not counted")
	}
}

func TestReadsToSamePlaneSerialize(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.Channels, cfg.PlanesPerDie = 1, 1 // single plane
	d := NewDevice(eng, cfg)
	var t1, t2 int64
	d.Read(0, func(at int64) { t1 = at })
	d.Read(1, func(at int64) { t2 = at })
	eng.Run()
	if t2 < t1+d.cfg.ReadLatency {
		t.Fatalf("plane did not serialize cell reads: %d then %d", t1, t2)
	}
}

func TestReadsToDifferentPlanesOverlap(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	var times []int64
	for i := 0; i < d.Planes(); i++ {
		d.Read(mem.PageNum(i), func(at int64) { times = append(times, at) })
	}
	eng.Run()
	// With one read per plane, completions must not be fully serialized:
	// the last one ends well before planes*readLatency.
	var max int64
	for _, x := range times {
		if x > max {
			max = x
		}
	}
	if max >= int64(d.Planes())*d.cfg.ReadLatency {
		t.Fatalf("parallel planes appear serialized: max completion %d", max)
	}
}

func TestWriteInvalidatesOldCopy(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	for i := 0; i < 5; i++ {
		d.Write(42, func(int64) {})
		eng.Run()
	}
	// Exactly one live copy of lpn 42 must exist.
	live := 0
	for p := range d.planes {
		for b := range d.planes[p].blocks {
			for _, o := range d.planes[p].blocks[b].owners {
				if o == 42 {
					live++
				}
			}
		}
	}
	if live != 1 {
		t.Fatalf("found %d live copies of lpn 42, want 1", live)
	}
	if msg := d.CheckFTLInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestGarbageCollectionReclaims(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.Channels, cfg.PlanesPerDie, cfg.DiesPerChannel = 1, 1, 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 4
	cfg.GCLowWater = 2
	d := NewDevice(eng, cfg)
	// Hammer a small set of logical pages far beyond physical capacity;
	// without GC the log would fill after 32 programs.
	for i := 0; i < 500; i++ {
		d.Write(mem.PageNum(i%4), func(int64) {})
		eng.Run()
	}
	if d.GCRuns.Value() == 0 {
		t.Fatal("no GC ran despite log churn")
	}
	if d.MaxEraseCount() == 0 {
		t.Fatal("no block was ever erased")
	}
	if msg := d.CheckFTLInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestGCBlocksReads(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.Channels, cfg.PlanesPerDie, cfg.DiesPerChannel = 1, 1, 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 4
	cfg.GCLowWater = 6 // collect eagerly
	cfg.LocalGC = false
	d := NewDevice(eng, cfg)
	for i := 0; i < 200; i++ {
		d.Write(mem.PageNum(i%4), func(int64) {})
	}
	// Reads issued while GC passes are pending should be counted blocked.
	for i := 0; i < 50; i++ {
		d.Read(mem.PageNum(i%4), func(int64) {})
	}
	eng.Run()
	if d.GCRuns.Value() == 0 {
		t.Skip("GC never triggered under this sequence")
	}
	if d.BlockedByGC.Value() == 0 {
		t.Fatal("no read was ever blocked by GC despite overlap")
	}
}

func TestLocalGCDoesNotBlockReads(t *testing.T) {
	run := func(local bool) uint64 {
		eng := sim.NewEngine()
		cfg := smallConfig()
		cfg.Channels, cfg.PlanesPerDie, cfg.DiesPerChannel = 1, 1, 1
		cfg.BlocksPerPlane = 8
		cfg.PagesPerBlock = 4
		cfg.GCLowWater = 6
		cfg.LocalGC = local
		d := NewDevice(eng, cfg)
		for i := 0; i < 200; i++ {
			d.Write(mem.PageNum(i%4), func(int64) {})
		}
		for i := 0; i < 50; i++ {
			d.Read(mem.PageNum(i%4), func(int64) {})
		}
		eng.Run()
		return d.BlockedByGC.Value()
	}
	if blocked := run(true); blocked != 0 {
		t.Fatalf("LocalGC blocked %d reads, want 0", blocked)
	}
}

func TestMorePlanesReduceBlockedFraction(t *testing.T) {
	run := func(channels int) float64 {
		eng := sim.NewEngine()
		cfg := smallConfig()
		cfg.Channels = channels
		cfg.DiesPerChannel, cfg.PlanesPerDie = 1, 1
		cfg.BlocksPerPlane = 8
		cfg.PagesPerBlock = 4
		cfg.GCLowWater = 6
		d := NewDevice(eng, cfg)
		rng := sim.NewRNG(7)
		for i := 0; i < 2000; i++ {
			if rng.Float64() < 0.3 {
				d.Write(mem.PageNum(rng.Intn(16)), func(int64) {})
			} else {
				d.Read(mem.PageNum(rng.Intn(16)), func(int64) {})
			}
		}
		eng.Run()
		return d.BlockedReadFraction()
	}
	small, big := run(1), run(8)
	if big > small {
		t.Fatalf("blocked fraction grew with capacity: %v -> %v", small, big)
	}
}

func TestLogicalCapacityBelowPhysical(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	d := NewDevice(eng, cfg)
	phys := uint64(d.Planes() * cfg.BlocksPerPlane * cfg.PagesPerBlock)
	if d.LogicalPages() >= phys {
		t.Fatalf("logical pages %d not below physical %d", d.LogicalPages(), phys)
	}
	if d.CapacityBytes() != d.LogicalPages()*mem.PageSize {
		t.Fatal("CapacityBytes inconsistent")
	}
}

func TestWearLeveling(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.Channels, cfg.PlanesPerDie, cfg.DiesPerChannel = 1, 1, 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 4
	cfg.GCLowWater = 2
	d := NewDevice(eng, cfg)
	for i := 0; i < 2000; i++ {
		d.Write(mem.PageNum(i%8), func(int64) {})
		eng.Run()
	}
	total, max := d.TotalEraseCount(), d.MaxEraseCount()
	if total == 0 {
		t.Fatal("no erases recorded")
	}
	// The greedy policy with round-robin logs should not put all wear on
	// one block: the max must be below half of the total.
	if max*2 > total {
		t.Fatalf("wear concentrated: max %d of total %d", max, total)
	}
}

func TestInvalidConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid config did not panic")
		}
	}()
	NewDevice(sim.NewEngine(), Config{})
}

func TestLPNOutOfRangePanics(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	huge := mem.PageNum(d.LogicalPages() * 3)
	check := func(op string, fn func()) {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatalf("%s of out-of-range LPN did not panic", op)
			}
			msg := fmt.Sprint(r)
			if !strings.Contains(msg, fmt.Sprint(uint64(huge))) ||
				!strings.Contains(msg, fmt.Sprint(d.LogicalPages())) {
				t.Fatalf("%s panic %q does not name the LPN and capacity", op, msg)
			}
		}()
		fn()
	}
	check("read", func() { d.Read(huge, func(int64) {}) })
	check("write", func() { d.Write(huge, func(int64) {}) })
}

func TestDeterministicLatencies(t *testing.T) {
	run := func() []int64 {
		eng := sim.NewEngine()
		d := NewDevice(eng, smallConfig())
		rng := sim.NewRNG(3)
		var out []int64
		for i := 0; i < 300; i++ {
			lpn := mem.PageNum(rng.Intn(64))
			if rng.Float64() < 0.5 {
				d.Write(lpn, func(at int64) { out = append(out, at) })
			} else {
				d.Read(lpn, func(at int64) { out = append(out, at) })
			}
		}
		eng.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("different completion counts across identical runs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("completion %d differs: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestWriteAmplification(t *testing.T) {
	eng := sim.NewEngine()
	cfg := smallConfig()
	cfg.Channels, cfg.PlanesPerDie, cfg.DiesPerChannel = 1, 1, 1
	cfg.BlocksPerPlane = 8
	cfg.PagesPerBlock = 4
	cfg.GCLowWater = 2
	d := NewDevice(eng, cfg)
	if d.WriteAmplification() != 1 {
		t.Fatal("WA must be 1 with no writes")
	}
	// Interleave hot churn with colder data so every block holds a few
	// still-live pages at collection time; GC must relocate them,
	// driving WA above 1.
	for i := 0; i < 500; i++ {
		var lpn mem.PageNum
		if i%2 == 0 {
			lpn = mem.PageNum((i / 2) % 4) // hot: rewritten constantly
		} else {
			lpn = mem.PageNum(8 + (i/2)%12) // colder: longer-lived
		}
		d.Write(lpn, func(int64) {})
		eng.Run()
	}
	wa := d.WriteAmplification()
	if wa <= 1 {
		t.Fatalf("WA = %v, want > 1 under churn with live cold data", wa)
	}
	if wa > 4 {
		t.Fatalf("WA = %v implausibly high for greedy GC at this overprovisioning", wa)
	}
	if msg := d.CheckFTLInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

// TestDeviceOpsAllocFree pins the device's hot calls at zero heap
// allocations once warm: ReadPage (ladder, uncorrectables and remaps
// included), ReadRecovered, and WritePage with the garbage collection,
// program failures and block retirements it triggers.
func TestDeviceOpsAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, faultyConfig(4e-3, 1e-3, 11))
	ops := func() {
		for i := 0; i < 256; i++ {
			lpn := mem.PageNum(i % 48)
			d.ReadPage(lpn)
			d.ReadRecovered(lpn)
			d.WritePage(lpn)
		}
	}
	for i := 0; i < 8; i++ {
		ops()
	}
	if got := testing.AllocsPerRun(20, ops); got != 0 {
		t.Fatalf("%.1f allocations per 256 read/recover/write rounds, want 0", got)
	}
	if d.GCRuns.Value() == 0 || d.Uncorrectables.Value() == 0 {
		t.Fatalf("gc runs %d, uncorrectables %d: want both exercised", d.GCRuns.Value(), d.Uncorrectables.Value())
	}
}
