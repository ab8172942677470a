// Package flash models a NAND SSD at the fidelity the paper's evaluation
// depends on: channel/die/plane parallelism, a page-mapped flash
// translation layer (FTL), log-structured writes, greedy garbage
// collection with wear-leveling counters, and the latency distribution
// those mechanisms produce — including the GC-induced read blocking that
// Section VI-D quantifies (about 4% of requests on a 256 GB device,
// under 1% at 1 TB).
package flash

import (
	"fmt"
	"math/bits"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
)

// Config describes the device. Latencies are nanoseconds.
type Config struct {
	Channels       int
	DiesPerChannel int
	PlanesPerDie   int
	BlocksPerPlane int
	PagesPerBlock  int

	ReadLatency     int64 // cell read (paper: ~50 us end-to-end reads)
	ProgramLatency  int64 // cell program
	EraseLatency    int64 // block erase
	ChannelTransfer int64 // moving one 4 KB page over the channel

	// OverprovisionPct reserves this fraction of physical capacity for
	// the FTL; logical capacity is physical/(1+OverprovisionPct).
	OverprovisionPct float64
	// GCLowWater triggers garbage collection in a plane when its free
	// block count drops to this value.
	GCLowWater int
	// LocalGC enables Tiny-Tail-style local garbage collection in which
	// reads are not blocked behind an in-progress GC (paper [80]).
	LocalGC bool

	// Fault injection (faults.go). With RBER and PEFailProb both zero the
	// device never consults its RNG and is bit-identical to the fault-free
	// model.

	// RBER is the raw bit error rate: the per-bit probability a cell read
	// returns a flipped bit before ECC. Nonzero RBER enables the
	// read-retry ladder.
	RBER float64
	// ECCCorrectableBits is the per-page ECC correction strength; a raw
	// read with more errors escalates to the retry ladder (default 64).
	ECCCorrectableBits int
	// ReadRetrySteps is the ladder depth: retries beyond it are
	// uncorrectable (default 6).
	ReadRetrySteps int
	// ReadRetryLatency is the extra sense time per ladder step (default
	// ReadLatency/2).
	ReadRetryLatency int64
	// RetryRBERScale is the factor each ladder step scales the effective
	// RBER by as the reference voltage is re-tuned (default 0.85).
	RetryRBERScale float64
	// PEFailProb is the probability a host program or a block erase fails,
	// retiring the block: it is marked bad and its live pages migrate.
	PEFailProb float64
	// RecoveryLatency is the cost of reconstructing a page from the FTL's
	// redundancy (ReadRecovered; default 4x ReadLatency).
	RecoveryLatency int64
	// Seed seeds the device-local fault RNG; derive it from the run seed
	// so fault-injected sweeps stay reproducible.
	Seed uint64
}

// DefaultConfig returns a scaled device: 8 channels x 2 dies x 2 planes,
// enough parallelism for 16 simulated cores, with datasheet-class MLC
// latencies that put end-to-end reads near the paper's 50 us.
func DefaultConfig() Config {
	return Config{
		Channels:         8,
		DiesPerChannel:   4,
		PlanesPerDie:     4,
		BlocksPerPlane:   64,
		PagesPerBlock:    64,
		ReadLatency:      45_000,
		ProgramLatency:   200_000,
		EraseLatency:     2_000_000,
		ChannelTransfer:  5_000,
		OverprovisionPct: 0.12,
		GCLowWater:       4,
		LocalGC:          false,
	}
}

// physLoc addresses one physical flash page. Config.Validate bounds every
// page count below invalidLPN, so each index fits 32 bits.
type physLoc struct {
	plane uint32
	block uint32
	page  uint32
}

// invalidLPN marks a free or stale slot in a block's owner array. Owners
// are 32-bit, so Config.Validate bounds the device's page counts below it.
const invalidLPN = ^uint32(0)

// retiredPtr is a bad block's writePtr: a program or erase failed in it,
// its live pages were migrated away, and it never serves writes or GC
// again. It reads as full, and no real writePtr reaches it: a block holds
// at most half of the device's fewer than invalidLPN pages.
const retiredPtr = ^uint32(0)

// ownerChunkSlots is how many owner slots one allocation carves into
// blocks (16 KiB of owners). A block gets its slots only when it first
// becomes a plane's active block, so an erased block that was never
// written holds none, and a write-heavy run pays one allocation per chunk
// rather than one per block.
const ownerChunkSlots = 1 << 12

// block is one erase unit: 16 bytes, one per physical block of the device.
// Its validCount and writePtr stay at most PagesPerBlock, which
// Config.Validate bounds below invalidLPN.
type block struct {
	slots      uint32 // 1 + index of its owner slots (Device.owners); 0: none yet
	validCount uint32
	writePtr   uint32 // next free slot; PagesPerBlock means full, retiredPtr bad
	eraseCount uint32
}

func (b *block) bad() bool { return b.writePtr == retiredPtr }

type plane struct {
	blocks     []block
	active     int              // block currently accepting writes
	freeBlocks sim.Queue[int32] // fully erased blocks, oldest first
	busyUntil  int64            // read-path occupancy
	// writeBusyUntil tracks program operations separately: writebacks are
	// de-prioritized against reads (Section IV-B2), so programs queue
	// among themselves and in GC windows without delaying reads.
	writeBusyUntil int64
	gcUntil        int64 // end of in-progress GC, for blocked-read accounting
	gcRuns         uint64
}

// Device is the SSD, modeling asynchronous NVMe-style access on the
// shared engine: each operation computes its completion time when it is
// issued and returns it, and the caller schedules the completion event.
type Device struct {
	cfg    Config
	eng    *sim.Engine
	planes []plane
	chans  []int64 // per-channel busy-until for page transfers
	ftl    map[mem.PageNum]physLoc
	nextPl int // round-robin write striping across planes

	// ownerChunks hold the blocks' owner slots: block slot set k (its
	// slots field minus one) is the k&chunkMask'th PagesPerBlock run of
	// ownerChunks[k>>chunkShift]. slotted counts the sets handed out.
	ownerChunks [][]uint32
	chunkShift  uint
	chunkMask   int
	slotted     uint32

	logicalPages uint64

	// programs counts physical page programs where they happen
	// (appendOwner), apart from the counters of what caused them.
	programs uint64

	// Fault-model state (faults.go). rng is consulted only when faultsOn.
	rng      *sim.RNG
	pFail    []float64 // per-ladder-step ECC failure probability
	faultsOn bool

	// RetryHook, if set, observes every nanosecond of fault-induced read
	// latency (ladder steps, recovery reconstructions) so the system layer
	// can attribute it separately from nominal flash waits.
	RetryHook func(ns int64)

	Reads          stats.Counter
	Writes         stats.Counter
	GCRuns         stats.Counter
	GCPageMoves    stats.Counter
	BlockedByGC    stats.Counter
	RetriedReads   stats.Counter // reads needing at least one ladder step
	RetryStepsTot  stats.Counter // total ladder steps across all reads
	Uncorrectables stats.Counter // reads that defeated the whole ladder
	RecoveredReads stats.Counter // redundancy reconstructions (ReadRecovered)
	BadBlocks      stats.Counter // blocks retired by program/erase failures
	RemapMoves     stats.Counter // live pages migrated off bad blocks or dead cells
	ReadLatHist    *stats.Histogram
	WriteLatHist   *stats.Histogram
}

// Validate rejects geometries the device cannot be built with: no planes,
// fewer than two blocks per plane (GC needs a spare), no pages per block,
// or more physical or logical pages than a 32-bit block owner can name
// below invalidLPN. That bound also keeps every page, block and slot-set
// index, and a block's validCount and writePtr, within 32 bits.
func (c Config) Validate() error {
	if c.Channels <= 0 || c.DiesPerChannel <= 0 || c.PlanesPerDie <= 0 {
		return fmt.Errorf("flash: %d channels x %d dies x %d planes: need at least one plane",
			c.Channels, c.DiesPerChannel, c.PlanesPerDie)
	}
	if c.BlocksPerPlane <= 1 {
		return fmt.Errorf("flash: %d blocks per plane: need at least 2, one spare for GC", c.BlocksPerPlane)
	}
	if c.PagesPerBlock <= 0 {
		return fmt.Errorf("flash: %d pages per block: need at least 1", c.PagesPerBlock)
	}
	if n := max(c.physicalPages(), c.LogicalPages()); n > uint64(invalidLPN) {
		return fmt.Errorf("flash: %d pages exceed the %d a 32-bit block owner can name", n, uint64(invalidLPN))
	}
	return nil
}

// NewDevice builds the SSD on the given engine. It panics on a geometry
// Config.Validate rejects. Every block starts erased; only each plane's
// first active block gets owner slots, so construction costs a few
// allocations and memory in proportion to the planes, not to the pages.
func NewDevice(eng *sim.Engine, cfg Config) *Device {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	np := cfg.Channels * cfg.DiesPerChannel * cfg.PlanesPerDie
	if cfg.GCLowWater < 1 {
		cfg.GCLowWater = 1
	}
	d := &Device{
		cfg:          cfg,
		eng:          eng,
		planes:       make([]plane, np),
		chans:        make([]int64, cfg.Channels),
		ftl:          make(map[mem.PageNum]physLoc),
		ReadLatHist:  stats.NewHistogram(),
		WriteLatHist: stats.NewHistogram(),
	}
	d.chunkShift = uint(bits.Len(uint(max(1, ownerChunkSlots/cfg.PagesPerBlock))) - 1)
	d.chunkMask = 1<<d.chunkShift - 1
	blocks := make([]block, np*cfg.BlocksPerPlane)
	freeBlocks := make([]int32, np*(cfg.BlocksPerPlane-1))
	for p := range d.planes {
		pl := &d.planes[p]
		pl.blocks, blocks = blocks[:cfg.BlocksPerPlane:cfg.BlocksPerPlane], blocks[cfg.BlocksPerPlane:]
		pl.freeBlocks, freeBlocks = sim.NewQueue(freeBlocks[:0:cfg.BlocksPerPlane-1]), freeBlocks[cfg.BlocksPerPlane-1:]
		for b := 1; b < cfg.BlocksPerPlane; b++ {
			pl.freeBlocks.Push(int32(b))
		}
		pl.active = 0
		d.giveSlots(&pl.blocks[0])
	}
	d.logicalPages = cfg.LogicalPages()
	seed := cfg.Seed
	if seed == 0 {
		seed = defaultSeed
	}
	d.rng = sim.NewRNG(seed ^ 0xf1a5_4b5e_ed00_0001)
	d.resolveFaults()
	return d
}

// giveSlots hands b its owner slots, all invalidLPN, unless it has them.
// Slots are carved from ownerChunks in order. A chunk holds the slots of a
// power-of-two number of blocks, at most ownerChunkSlots slots (one
// block's if a block has more), cut to the blocks the device has left.
// An erased block keeps its slots for its next turn as the active block.
func (d *Device) giveSlots(b *block) {
	if b.slots != 0 {
		return
	}
	k := int(d.slotted)
	if k&d.chunkMask == 0 {
		blocks := min(d.chunkMask+1, len(d.planes)*d.cfg.BlocksPerPlane-k)
		c := make([]uint32, blocks*d.cfg.PagesPerBlock)
		for i := range c {
			c[i] = invalidLPN
		}
		d.ownerChunks = append(d.ownerChunks, c)
	}
	d.slotted++
	b.slots = d.slotted
}

// owners returns b's owner slots: the logical page stored in each
// physical page, or invalidLPN. b must have slots (giveSlots).
func (d *Device) owners(b *block) []uint32 {
	k := int(b.slots) - 1
	ppb := d.cfg.PagesPerBlock
	off := (k & d.chunkMask) * ppb
	return d.ownerChunks[k>>d.chunkShift][off : off+ppb : off+ppb]
}

// physicalPages returns the geometry's raw page count.
func (c Config) physicalPages() uint64 {
	np := c.Channels * c.DiesPerChannel * c.PlanesPerDie
	return uint64(np) * uint64(c.BlocksPerPlane) * uint64(c.PagesPerBlock)
}

// LogicalPages returns the advertised logical capacity (in 4 KB pages) a
// device with this geometry would have, without building it.
func (c Config) LogicalPages() uint64 {
	return uint64(float64(c.physicalPages()) / (1 + c.OverprovisionPct))
}

// LogicalPages returns the device's advertised capacity in 4 KB pages.
func (d *Device) LogicalPages() uint64 { return d.logicalPages }

// Planes returns the number of planes, the unit of GC blocking.
func (d *Device) Planes() int { return len(d.planes) }

func (d *Device) channelOf(planeIdx int) int {
	perCh := d.cfg.DiesPerChannel * d.cfg.PlanesPerDie
	return planeIdx / perCh
}

// planeForRead returns where lpn lives. Unwritten logical pages are placed
// deterministically by striping, modeling a pre-loaded dataset without
// materializing an FTL entry per cold page until first write.
func (d *Device) planeForRead(lpn mem.PageNum) int {
	if loc, ok := d.ftl[lpn]; ok {
		return int(loc.plane)
	}
	return int(uint64(lpn) % uint64(len(d.planes)))
}

// checkLPN rejects logical page numbers beyond the advertised capacity.
// (Earlier revisions silently wrapped them modulo the capacity, aliasing
// distinct logical pages onto the same flash data.)
func (d *Device) checkLPN(lpn mem.PageNum) {
	if uint64(lpn) >= d.logicalPages {
		panic(fmt.Sprintf("flash: lpn %d beyond logical capacity of %d pages", uint64(lpn), d.logicalPages))
	}
}

// ReadResult describes one completed page read.
type ReadResult struct {
	// At is the simulation time the read settled: data crossed the channel
	// for successful reads, the final ladder step failed for uncorrectable
	// ones.
	At int64
	// Retries is the number of read-retry ladder steps the read needed.
	Retries int
	// Err is ErrUncorrectable when raw errors defeated ECC at every ladder
	// step; the device has already remapped the page, so a re-read targets
	// fresh cells. Err is nil on success.
	Err error
}

// ReadPage fetches logical page lpn and returns when and how the read
// settles. The device never schedules the completion itself: the caller
// pushes its own event at the returned time, right after the call, so
// reads cost no callback closure. Raw bit errors (Config.RBER) escalate
// through the read-retry ladder, each step adding sense latency; a read
// that fails the whole ladder settles with ErrUncorrectable instead of
// data. Reads of never-written pages model the pre-loaded dataset and are
// legal.
func (d *Device) ReadPage(lpn mem.PageNum) ReadResult {
	d.checkLPN(lpn)
	now := d.eng.Now()
	p := d.planeForRead(lpn)
	pl := &d.planes[p]

	start := now
	if !d.cfg.LocalGC && pl.gcUntil > start {
		// The plane is mid-GC and the device cannot serve reads around
		// it; the request blocks until the GC finishes.
		d.BlockedByGC.Inc()
		start = pl.gcUntil
	}
	if pl.busyUntil > start {
		start = pl.busyUntil
	}
	extraNs, steps, uncorrectable := d.readLadder()
	if steps > 0 {
		d.RetriedReads.Inc()
		d.RetryStepsTot.Add(uint64(steps))
		if d.RetryHook != nil {
			d.RetryHook(extraNs)
		}
	}
	cellDone := start + d.cfg.ReadLatency + extraNs
	pl.busyUntil = cellDone
	d.Reads.Inc()

	if uncorrectable {
		// No data to transfer: the error surfaces when the last ladder
		// step fails. The FTL reconstructs the page from redundancy and
		// remaps it so retries target fresh cells.
		d.Uncorrectables.Inc()
		d.remapLPN(lpn)
		return ReadResult{At: cellDone, Retries: steps, Err: ErrUncorrectable}
	}

	ch := d.channelOf(p)
	xferStart := cellDone
	if d.chans[ch] > xferStart {
		xferStart = d.chans[ch]
	}
	finish := xferStart + d.cfg.ChannelTransfer
	d.chans[ch] = finish

	d.ReadLatHist.Record(finish - now)
	return ReadResult{At: finish, Retries: steps}
}

// Read is the callback form of a fault-transparent read: done fires with
// the completion time once the page has crossed the channel, an
// uncorrectable read being reconstructed by ReadRecovered first. The
// simulator's own callers use ReadPage and schedule their own events;
// Read serves callers outside the hot path, such as microbenchmarks.
func (d *Device) Read(lpn mem.PageNum, done func(at int64)) {
	r := d.ReadPage(lpn)
	d.eng.At(r.At, func() {
		if r.Err != nil {
			at := d.ReadRecovered(lpn)
			d.eng.At(at, func() { done(at) })
			return
		}
		done(r.At)
	})
}

// Write is the callback form of WritePage: done fires with the program's
// completion time. Like Read it serves callers outside the hot path.
func (d *Device) Write(lpn mem.PageNum, done func(at int64)) {
	at := d.WritePage(lpn)
	d.eng.At(at, func() { done(at) })
}

// NopDone is the completion event for a WritePage nothing waits for.
// Callers still schedule it so the engine's event count and tie-break
// sequence match a device that schedules its own completions.
func NopDone(any) {}

// WritePage programs logical page lpn (log-structured: a fresh physical
// page is allocated and any previous copy is invalidated) and returns the
// time the program completes; as with ReadPage, the caller schedules any
// completion event. Writes may trigger garbage collection.
func (d *Device) WritePage(lpn mem.PageNum) int64 {
	d.checkLPN(lpn)
	now := d.eng.Now()
	p := d.nextPl
	d.nextPl = (d.nextPl + 1) % len(d.planes)
	pl := &d.planes[p]

	// The host-to-device transfer happens at submission: the device
	// buffers write data, so the channel is occupied now, not when the
	// plane eventually programs. (Reserving the channel at the program's
	// future start would block unrelated reads behind a write backlog.)
	ch := d.channelOf(p)
	xferStart := now
	if d.chans[ch] > xferStart {
		xferStart = d.chans[ch]
	}
	d.chans[ch] = xferStart + d.cfg.ChannelTransfer

	progStart := xferStart + d.cfg.ChannelTransfer
	if pl.gcUntil > progStart {
		progStart = pl.gcUntil
	}
	if pl.writeBusyUntil > progStart {
		progStart = pl.writeBusyUntil
	}
	// A failed program retires the active block and migrates its live
	// pages before this write can land in a fresh block.
	progStart += d.maybeFailProgram(p, progStart)
	finish := progStart + d.cfg.ProgramLatency
	pl.writeBusyUntil = finish

	d.program(p, lpn)
	d.maybeGC(p, finish)

	d.Writes.Inc()
	d.WriteLatHist.Record(finish - now)
	return finish
}

// program updates FTL state for a write into plane p.
func (d *Device) program(p int, lpn mem.PageNum) {
	// Invalidate the old copy, wherever it lives. checkLPN has bounded
	// lpn below invalidLPN, so the 32-bit owner holds it exactly.
	owner := uint32(lpn)
	if old, ok := d.ftl[lpn]; ok {
		ob := &d.planes[old.plane].blocks[old.block]
		if owners := d.owners(ob); owners[old.page] == owner {
			owners[old.page] = invalidLPN
			ob.validCount--
		}
	}
	d.appendOwner(p, owner)
}

// appendOwner writes owner into the next free page of plane p's active
// block, rotating to a fresh block first if the active one is full, and
// points the FTL at it.
func (d *Device) appendOwner(p int, owner uint32) {
	pl := &d.planes[p]
	blk := &pl.blocks[pl.active]
	if blk.writePtr >= uint32(d.cfg.PagesPerBlock) {
		d.rotateActive(p)
		blk = &pl.blocks[pl.active]
	}
	slot := blk.writePtr
	blk.writePtr++
	d.programs++
	d.owners(blk)[slot] = owner
	blk.validCount++
	d.ftl[mem.PageNum(owner)] = physLoc{plane: uint32(p), block: uint32(pl.active), page: slot}
}

// rotateActive makes a fresh erased block the active write target, giving
// it owner slots if it has never been written.
func (d *Device) rotateActive(p int) {
	pl := &d.planes[p]
	if pl.freeBlocks.Len() == 0 {
		// Forced synchronous GC: the log is full. maybeGC keeps free
		// blocks above water in normal operation, so this indicates
		// sustained overload; reclaim immediately.
		d.collect(p, d.eng.Now())
	}
	if pl.freeBlocks.Len() == 0 {
		panic(fmt.Sprintf("flash: no reclaimable blocks (%d retired as bad); device over-filled beyond overprovisioning",
			d.BadBlocks.Value()))
	}
	pl.active = int(pl.freeBlocks.Pop())
	d.giveSlots(&pl.blocks[pl.active])
}

// maybeGC triggers garbage collection when a plane's free-block pool is at
// or below the low-water mark.
func (d *Device) maybeGC(p int, at int64) {
	pl := &d.planes[p]
	if pl.freeBlocks.Len() > d.cfg.GCLowWater {
		return
	}
	d.collect(p, at)
}

// collect performs one greedy GC pass in plane p starting at time at:
// the block with the fewest valid pages is selected, its live pages are
// relocated, and it is erased. The plane is busy for the whole pass; when
// LocalGC is off, reads arriving during the pass are blocked behind it.
func (d *Device) collect(p int, at int64) {
	pl := &d.planes[p]
	victim := -1
	ppb := uint32(d.cfg.PagesPerBlock)
	best := ppb + 1
	for b := range pl.blocks {
		blk := &pl.blocks[b]
		if b == pl.active || blk.bad() {
			continue
		}
		if blk.writePtr < ppb {
			continue // not yet full; not a GC candidate
		}
		if blk.validCount < best {
			best = blk.validCount
			victim = b
		}
	}
	if victim < 0 {
		return
	}
	vb := &pl.blocks[victim]
	moves := 0
	owners := d.owners(vb)
	for slot, owner := range owners {
		if owner == invalidLPN {
			continue
		}
		owners[slot] = invalidLPN
		vb.validCount--
		moves++
		// Relocate into the active block of the same plane (local GC
		// keeps erasure and relocation in-plane, paper Section IV-B).
		d.appendOwner(p, owner)
	}
	dur := int64(moves)*(d.cfg.ReadLatency+d.cfg.ProgramLatency) + d.cfg.EraseLatency
	vb.validCount = 0
	if d.maybeFailErase(p, victim) {
		// The erase failed: the block is retired instead of freed. The
		// pass still occupied the plane for the full duration.
	} else {
		vb.writePtr = 0
		vb.eraseCount++
		pl.freeBlocks.Push(int32(victim))
	}

	end := at + dur
	if end > pl.gcUntil {
		pl.gcUntil = end
	}
	if end > pl.busyUntil {
		pl.busyUntil = end
	}
	if end > pl.writeBusyUntil {
		pl.writeBusyUntil = end
	}
	pl.gcRuns++
	d.GCRuns.Inc()
	d.GCPageMoves.Add(uint64(moves))
}

// WriteAmplification returns (host writes + GC relocations + bad-block
// and uncorrectable remaps) / host writes — the endurance figure of merit
// behind the paper's "practical endurance/lifetime" claim (Section V-A).
// It returns 1 with no writes.
func (d *Device) WriteAmplification() float64 {
	host := d.Writes.Value()
	if host == 0 {
		return 1
	}
	return float64(host+d.GCPageMoves.Value()+d.RemapMoves.Value()) / float64(host)
}

// ProgramCount returns the total page programs the device has performed,
// counted as each physical page is written: the quantity that consumes
// P/E endurance and that the economics model prices as wear. It should
// equal host writes plus GC relocations plus remap copies, which are
// counted where each is caused.
func (d *Device) ProgramCount() uint64 { return d.programs }

// BlockedReadFraction returns the fraction of reads that arrived during an
// in-progress GC pass and had to wait for it (Section VI-D's metric).
func (d *Device) BlockedReadFraction() float64 {
	if d.Reads.Value() == 0 {
		return 0
	}
	return float64(d.BlockedByGC.Value()) / float64(d.Reads.Value())
}

// CheckFTLInvariants validates internal consistency: every FTL entry
// points at a slot owned by that logical page, the mapping is a bijection
// on live pages (no live slot without an FTL entry pointing at it), valid
// counts match the owner maps, and retired (bad) blocks hold no live
// pages, are never the active write target, and never sit in a free list.
// Owner slots are handed out lazily: every active block has its own, and
// a block without them is erased and unwritten (writePtr and validCount
// zero). It returns an error description or "" when consistent. Tests and
// the property suite call this after workloads run.
func (d *Device) CheckFTLInvariants() string {
	for lpn, loc := range d.ftl {
		if int(loc.plane) >= len(d.planes) || int(loc.block) >= d.cfg.BlocksPerPlane {
			return fmt.Sprintf("lpn %d maps to plane %d block %d out of range", lpn, loc.plane, loc.block)
		}
		if uint64(lpn) >= uint64(invalidLPN) {
			return fmt.Sprintf("lpn %d does not fit a 32-bit block owner", lpn)
		}
		blk := &d.planes[loc.plane].blocks[loc.block]
		if blk.slots == 0 {
			return fmt.Sprintf("lpn %d mapped onto block %d of plane %d, which has no owner slots",
				lpn, loc.block, loc.plane)
		}
		if int(loc.page) >= d.cfg.PagesPerBlock || d.owners(blk)[loc.page] != uint32(lpn) {
			return fmt.Sprintf("lpn %d FTL entry not mirrored by block owner", lpn)
		}
		if blk.bad() {
			return fmt.Sprintf("lpn %d mapped onto bad block %d of plane %d", lpn, loc.block, loc.plane)
		}
	}
	live := 0
	slotsSeen := make([]bool, d.slotted)
	for p := range d.planes {
		pl := &d.planes[p]
		if pl.blocks[pl.active].bad() {
			return fmt.Sprintf("plane %d active block %d is bad", p, pl.active)
		}
		if pl.blocks[pl.active].slots == 0 {
			return fmt.Sprintf("plane %d active block %d has no owner slots", p, pl.active)
		}
		for _, b := range pl.freeBlocks.Items() {
			if pl.blocks[b].bad() {
				return fmt.Sprintf("plane %d free list contains bad block %d", p, b)
			}
		}
		for b := range pl.blocks {
			blk := &pl.blocks[b]
			if blk.slots == 0 {
				if blk.writePtr != 0 || blk.validCount != 0 {
					return fmt.Sprintf("plane %d block %d has no owner slots but writePtr %d, validCount %d",
						p, b, blk.writePtr, blk.validCount)
				}
				continue
			}
			if blk.slots > d.slotted || slotsSeen[blk.slots-1] {
				return fmt.Sprintf("plane %d block %d owner slots %d out of range or shared", p, b, blk.slots)
			}
			slotsSeen[blk.slots-1] = true
			n := 0
			for _, o := range d.owners(blk) {
				if o != invalidLPN {
					n++
				}
			}
			if uint32(n) != blk.validCount {
				return fmt.Sprintf("plane %d block %d validCount %d != owners %d", p, b, blk.validCount, n)
			}
			if blk.bad() && n != 0 {
				return fmt.Sprintf("plane %d bad block %d still holds %d live pages", p, b, n)
			}
			live += n
		}
	}
	// Each live slot's owner has an FTL entry, and every FTL entry is
	// mirrored by exactly one live slot (checked above); equal totals make
	// the live mapping a bijection.
	if live != len(d.ftl) {
		return fmt.Sprintf("%d live physical slots but %d FTL entries; stale owners exist", live, len(d.ftl))
	}
	return ""
}
