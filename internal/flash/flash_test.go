package flash

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

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

// readSync reads lpn at the engine's current time and advances the clock
// to the read's completion, which it returns. A read that settles
// uncorrectable is reconstructed from redundancy at that moment, as the
// DRAM cache does.
func readSync(eng *sim.Engine, d *Device, lpn mem.PageNum) int64 {
	r := d.ReadPage(lpn)
	eng.RunUntil(r.At)
	if r.Err == nil {
		return r.At
	}
	at := d.ReadRecovered(lpn)
	eng.RunUntil(at)
	return at
}

// writeSync programs lpn at the engine's current time and advances the
// clock to the program's completion, which it returns.
func writeSync(eng *sim.Engine, d *Device, lpn mem.PageNum) int64 {
	at := d.WritePage(lpn)
	eng.RunUntil(at)
	return at
}

func TestReadLatencyIncludesCellAndTransfer(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	doneAt := readSync(eng, d, 0)
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
	t1 := d.ReadPage(0).At
	t2 := d.ReadPage(1).At
	if t2 < t1+d.cfg.ReadLatency {
		t.Fatalf("plane did not serialize cell reads: %d then %d", t1, t2)
	}
}

func TestReadsToDifferentPlanesOverlap(t *testing.T) {
	eng := sim.NewEngine()
	d := NewDevice(eng, smallConfig())
	var times []int64
	for i := 0; i < d.Planes(); i++ {
		times = append(times, d.ReadPage(mem.PageNum(i)).At)
	}
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
		writeSync(eng, d, 42)
	}
	// Exactly one live copy of lpn 42 must exist.
	live := 0
	for p := range d.planes {
		for b := range d.planes[p].blocks {
			if blk := &d.planes[p].blocks[b]; blk.slots != 0 {
				for _, o := range d.owners(blk) {
					if o == 42 {
						live++
					}
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

// TestOwnerSlotsOnlyForWrittenBlocks checks that a block gets owner slots
// only when it first becomes a plane's active block: a fresh device holds
// one block's slots per plane, and a plane's next block gets its own only
// when a write no longer fits the first.
func TestOwnerSlotsOnlyForWrittenBlocks(t *testing.T) {
	if size := unsafe.Sizeof(block{}); size > 16 {
		t.Errorf("block is %d bytes, want at most 16", size)
	}
	cfg := DefaultConfig()
	cfg.Channels = 3 * 8 // the system's geometry for 8 cores
	d := NewDevice(sim.NewEngine(), cfg)
	if d.Planes() != 384 {
		t.Fatalf("%d planes, want 384", d.Planes())
	}
	slotted := func() (blocks, slots int) {
		for p := range d.planes {
			for b := range d.planes[p].blocks {
				if blk := &d.planes[p].blocks[b]; blk.slots != 0 {
					blocks++
					slots += len(d.owners(blk))
				}
			}
		}
		return blocks, slots
	}
	if blocks, slots := slotted(); blocks != d.Planes() || slots != d.Planes()*cfg.PagesPerBlock {
		t.Fatalf("new device: %d blocks hold %d owner slots, want %d and %d",
			blocks, slots, d.Planes(), d.Planes()*cfg.PagesPerBlock)
	}
	allocated := 0
	for _, c := range d.ownerChunks {
		allocated += len(c)
	}
	if allocated >= d.Planes()*cfg.PagesPerBlock+ownerChunkSlots {
		t.Fatalf("new device allocated %d owner slots for %d in use: more than one chunk spare",
			allocated, d.Planes()*cfg.PagesPerBlock)
	}

	for i := range cfg.PagesPerBlock {
		d.program(0, mem.PageNum(i))
	}
	if blocks, _ := slotted(); blocks != d.Planes() {
		t.Fatalf("a full first block gave %d blocks slots, want %d", blocks, d.Planes())
	}
	d.program(0, mem.PageNum(cfg.PagesPerBlock))
	if blocks, _ := slotted(); blocks != d.Planes()+1 {
		t.Fatalf("writing past plane 0's first block gave %d blocks slots, want %d", blocks, d.Planes()+1)
	}
	if msg := d.CheckFTLInvariants(); msg != "" {
		t.Fatal(msg)
	}

	// The checker rejects a written block without slots and an active
	// block without slots.
	pl := &d.planes[1]
	pl.blocks[5].writePtr = 1
	if msg := d.CheckFTLInvariants(); !strings.Contains(msg, "no owner slots") {
		t.Errorf("unslotted block with writePtr 1: CheckFTLInvariants = %q", msg)
	}
	pl.blocks[5].writePtr = 0
	pl.active = 5
	if msg := d.CheckFTLInvariants(); !strings.Contains(msg, "active block 5 has no owner slots") {
		t.Errorf("unslotted active block: CheckFTLInvariants = %q", msg)
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
		writeSync(eng, d, mem.PageNum(i%4))
	}
	if d.GCRuns.Value() == 0 {
		t.Fatal("no GC ran despite log churn")
	}
	if _, max := eraseCounts(d); max == 0 {
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
		d.WritePage(mem.PageNum(i % 4))
	}
	// Reads issued while GC passes are pending should be counted blocked.
	for i := 0; i < 50; i++ {
		d.ReadPage(mem.PageNum(i % 4))
	}
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
			d.WritePage(mem.PageNum(i % 4))
		}
		for i := 0; i < 50; i++ {
			d.ReadPage(mem.PageNum(i % 4))
		}
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
				d.WritePage(mem.PageNum(rng.Intn(16)))
			} else {
				d.ReadPage(mem.PageNum(rng.Intn(16)))
			}
		}
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
}

// eraseCounts returns the sum and the largest of d's per-block erase
// counts, the wear-leveling figures of merit.
func eraseCounts(d *Device) (total, max uint64) {
	for p := range d.planes {
		for _, b := range d.planes[p].blocks {
			c := uint64(b.eraseCount)
			total += c
			if c > max {
				max = c
			}
		}
	}
	return total, max
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
		writeSync(eng, d, mem.PageNum(i%8))
	}
	total, max := eraseCounts(d)
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

func TestConfigValidate(t *testing.T) {
	// 3*5*17*257*65537 = 2^32-1 pages: every LPN fits below invalidLPN.
	edge := smallConfig()
	edge.Channels, edge.DiesPerChannel, edge.PlanesPerDie = 3, 5, 17
	edge.BlocksPerPlane, edge.PagesPerBlock = 257, 65537
	if err := edge.Validate(); err != nil {
		t.Fatalf("2^32-1 physical pages rejected: %v", err)
	}
	for _, c := range []struct {
		name string
		set  func(c *Config)
		want string
	}{
		{"no channels", func(c *Config) { c.Channels = 0 }, "at least one plane"},
		{"no planes", func(c *Config) { c.PlanesPerDie = 0 }, "at least one plane"},
		{"one block", func(c *Config) { c.BlocksPerPlane = 1 }, "blocks per plane"},
		{"no pages", func(c *Config) { c.PagesPerBlock = 0 }, "pages per block"},
		{"one page past 32 bits", func(c *Config) { *c = edge; c.PagesPerBlock++ }, "32-bit"},
		{"logical past 32 bits", func(c *Config) { *c = edge; c.OverprovisionPct = -0.01 }, "32-bit"},
	} {
		cfg := smallConfig()
		c.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want one mentioning %q", c.name, err, c.want)
		}
	}
	if err := smallConfig().Validate(); err != nil {
		t.Fatalf("small config rejected: %v", err)
	}
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
	check("read", func() { d.ReadPage(huge) })
	check("write", func() { d.WritePage(huge) })
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
				out = append(out, d.WritePage(lpn))
			} else {
				out = append(out, d.ReadPage(lpn).At)
			}
		}
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
		writeSync(eng, d, lpn)
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
