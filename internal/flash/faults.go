package flash

// Fault injection: a deterministic model of the NAND error mechanisms the
// datasheet latency numbers hide. Raw bit errors force the controller
// through a read-retry ladder (each step re-senses at a shifted reference
// voltage, adding latency); reads that defeat every ladder step are
// uncorrectable and must be reconstructed from the FTL's redundancy and
// remapped; program/erase failures retire whole blocks, whose live pages
// migrate GC-style. All randomness comes from a device-local RNG seeded
// from the run seed, so fault-injected sweeps stay byte-identical across
// worker counts. With RBER and PEFailProb both zero the device never
// consults the RNG and behaves exactly like the fault-free model.

import (
	"errors"
	"fmt"
	"math"

	"astriflash/internal/mem"
)

// ErrUncorrectable reports a read whose raw errors defeated ECC at every
// step of the read-retry ladder. The device remaps the page before
// delivering the error, so a re-read of the same LPN targets fresh cells.
var ErrUncorrectable = errors.New("flash: uncorrectable read")

// pageBits is the payload a page ECC codeword protects.
const pageBits = mem.PageSize * 8

// Fault-model defaults, resolved in NewDevice when RBER > 0.
const (
	defaultECCBits = 64
	// Six ladder steps, each re-sensing at a reference voltage that cuts
	// the effective RBER by 0.85x: deep enough that a device at twice the
	// ECC design point (RBER 4e-3 against 64 correctable bits) still
	// corrects ~99.8% of reads — degraded, not collapsed — while a shallow
	// ladder would surrender most of those reads as uncorrectable.
	defaultRetrySteps     = 6
	defaultRetryScale     = 0.85
	defaultSeed           = 0x5eedf1a5
	defaultRecoveryFactor = 4 // RecoveryLatency = factor * ReadLatency
)

// resolveFaults fills fault-model defaults and precomputes the per-step
// ECC failure probabilities. pFail[k] is the probability the read at
// ladder step k (0 = the initial read) still exceeds the ECC correction
// strength: each step re-senses at a tuned reference voltage, scaling the
// effective RBER down by RetryRBERScale.
func (d *Device) resolveFaults() {
	cfg := &d.cfg
	d.faultsOn = cfg.RBER > 0 || cfg.PEFailProb > 0
	if !d.faultsOn {
		return
	}
	if cfg.RBER < 0 || cfg.RBER >= 1 || cfg.PEFailProb < 0 || cfg.PEFailProb >= 1 {
		panic(fmt.Sprintf("flash: fault rates out of [0,1): RBER=%v PEFailProb=%v", cfg.RBER, cfg.PEFailProb))
	}
	if cfg.ECCCorrectableBits <= 0 {
		cfg.ECCCorrectableBits = defaultECCBits
	}
	if cfg.ReadRetrySteps <= 0 {
		cfg.ReadRetrySteps = defaultRetrySteps
	}
	if cfg.ReadRetryLatency <= 0 {
		cfg.ReadRetryLatency = cfg.ReadLatency / 2
	}
	if cfg.RetryRBERScale <= 0 || cfg.RetryRBERScale >= 1 {
		cfg.RetryRBERScale = defaultRetryScale
	}
	if cfg.RecoveryLatency <= 0 {
		cfg.RecoveryLatency = defaultRecoveryFactor * cfg.ReadLatency
	}
	d.pFail = make([]float64, cfg.ReadRetrySteps+1)
	rber := cfg.RBER
	for k := range d.pFail {
		d.pFail[k] = poissonTailAbove(rber*pageBits, cfg.ECCCorrectableBits)
		rber *= cfg.RetryRBERScale
	}
}

// poissonTailAbove returns P(X > limit) for X ~ Poisson(lambda): the
// probability a page with expected raw error count lambda exceeds the ECC
// correction limit. Evaluated once per ladder step at device build.
func poissonTailAbove(lambda float64, limit int) float64 {
	if lambda <= 0 {
		return 0
	}
	// Sum the PMF from 0 to limit iteratively; for the lambdas this model
	// sees (<= a few hundred) every term is representable in float64.
	term := 1.0 // lambda^0 / 0!
	sum := term
	for i := 1; i <= limit; i++ {
		term *= lambda / float64(i)
		sum += term
	}
	// cdf = e^-lambda * sum; guard the tail against rounding above 1.
	cdf := sum * math.Exp(-lambda)
	if cdf > 1 {
		cdf = 1
	}
	return 1 - cdf
}

// readLadder draws one read's path through the retry ladder. It returns
// the extra latency beyond the nominal cell read, the number of retry
// steps taken, and whether the read was uncorrectable even at the final
// step. Fault-free devices return immediately without touching the RNG.
func (d *Device) readLadder() (extraNs int64, steps int, uncorrectable bool) {
	if !d.faultsOn || len(d.pFail) == 0 {
		return 0, 0, false
	}
	for k := 0; k < len(d.pFail); k++ {
		if d.rng.Float64() >= d.pFail[k] {
			return int64(k) * d.cfg.ReadRetryLatency, k, false
		}
	}
	// Every step failed: the ladder is exhausted.
	return int64(d.cfg.ReadRetrySteps) * d.cfg.ReadRetryLatency, d.cfg.ReadRetrySteps, true
}

// remapLPN rewrites lpn's data to a fresh physical page after an
// uncorrectable read: the controller reconstructs the payload from its
// redundancy (channel parity) and re-programs it, so subsequent reads of
// the LPN target healthy cells. The rewrite occupies the target plane's
// program path off the read's critical path.
func (d *Device) remapLPN(lpn mem.PageNum) {
	p := d.nextPl
	d.nextPl = (d.nextPl + 1) % len(d.planes)
	d.program(p, lpn)
	d.RemapMoves.Inc()
	pl := &d.planes[p]
	end := d.eng.Now() + d.cfg.ProgramLatency
	if end > pl.writeBusyUntil {
		pl.writeBusyUntil = end
	}
}

// maybeFailProgram draws the program-failure model for a host write into
// plane p. On failure the active block is retired — marked bad, its live
// pages migrated GC-style — and the plane is occupied for the migration,
// which the caller adds to the program's start time. It returns the extra
// latency the failure cost.
func (d *Device) maybeFailProgram(p int, at int64) int64 {
	if !d.faultsOn || d.cfg.PEFailProb <= 0 || d.rng.Float64() >= d.cfg.PEFailProb {
		return 0
	}
	pl := &d.planes[p]
	moves := d.retireBlock(p, pl.active)
	dur := int64(moves) * (d.cfg.ReadLatency + d.cfg.ProgramLatency)
	// The migration is a GC-style window: reads behind it block unless the
	// device does local GC.
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
	return dur
}

// retireBlock marks block b of plane p bad, migrates its live pages into
// healthy blocks of the same plane, and removes it from service forever.
// It returns the number of pages migrated.
func (d *Device) retireBlock(p, b int) int {
	pl := &d.planes[p]
	blk := &pl.blocks[b]
	// A bad block must never become a GC victim or a write target again;
	// retiredPtr reads as full, so rotate/collect bookkeeping stays sane.
	blk.writePtr = retiredPtr
	d.BadBlocks.Inc()
	if pl.active == b {
		d.rotateActive(p)
	}
	moves := 0
	owners := d.owners(blk)
	for slot, owner := range owners {
		if owner == invalidLPN {
			continue
		}
		owners[slot] = invalidLPN
		blk.validCount--
		moves++
		d.appendOwner(p, owner)
	}
	d.RemapMoves.Add(uint64(moves))
	return moves
}

// maybeFailErase draws the erase-failure model for the just-collected
// victim block. A failed erase retires the block: it is not returned to
// the free pool. Reports whether the erase failed.
func (d *Device) maybeFailErase(p, b int) bool {
	if !d.faultsOn || d.cfg.PEFailProb <= 0 || d.rng.Float64() >= d.cfg.PEFailProb {
		return false
	}
	d.planes[p].blocks[b].writePtr = retiredPtr
	d.BadBlocks.Inc()
	return true
}

// ReadRecovered reconstructs lpn from the FTL's redundancy, bypassing the
// cell read entirely: it cannot fail, costs RecoveryLatency on top of a
// nominal read, and is the backside controller's last-resort fallback when
// bounded retries are exhausted. On fault-free devices it behaves like a
// ReadPage with the (zero-valued) recovery penalty. It returns the
// completion time; the caller schedules the completion event.
func (d *Device) ReadRecovered(lpn mem.PageNum) int64 {
	d.checkLPN(lpn)
	now := d.eng.Now()
	p := d.planeForRead(lpn)
	pl := &d.planes[p]
	start := now
	if !d.cfg.LocalGC && pl.gcUntil > start {
		d.BlockedByGC.Inc()
		start = pl.gcUntil
	}
	if pl.busyUntil > start {
		start = pl.busyUntil
	}
	cellDone := start + d.cfg.ReadLatency + d.cfg.RecoveryLatency
	pl.busyUntil = cellDone
	ch := d.channelOf(p)
	xferStart := cellDone
	if d.chans[ch] > xferStart {
		xferStart = d.chans[ch]
	}
	finish := xferStart + d.cfg.ChannelTransfer
	d.chans[ch] = finish
	d.Reads.Inc()
	d.RecoveredReads.Inc()
	if d.RetryHook != nil && d.cfg.RecoveryLatency > 0 {
		d.RetryHook(d.cfg.RecoveryLatency)
	}
	d.ReadLatHist.Record(finish - now)
	return finish
}
