// Package dram models DDR DRAM device timing: channels, banks, row
// buffers, and the RAS/CAS/precharge command sequence, scheduled FCFS per
// bank with open-row awareness (the first-ready half of FR-FCFS; requests
// to an open row proceed without a precharge).
//
// The DRAM-cache frontside and backside controllers (package dramcache)
// price every tag probe, data read, MSR probe, and page install in terms
// of this model, as the paper does in Section IV-B.
package dram

import (
	"fmt"

	"astriflash/internal/mem"
	"astriflash/internal/stats"
)

// Timing holds DRAM command latencies in nanoseconds. Defaults approximate
// DDR4-2400 grade parts, the class of device behind the paper's 100 ns
// loaded DRAM access.
type Timing struct {
	TRCD   int64 // activate (RAS) to column command
	TCAS   int64 // column command to first data beat
	TRP    int64 // precharge
	TBurst int64 // per-64B-block burst transfer time
	// TREFI is the refresh interval; every TREFI each bank is blocked
	// for TRFC. Zero disables refresh modeling.
	TREFI int64
	TRFC  int64
}

// DefaultTiming returns DDR4-2400-like parameters, including the 7.8 us
// refresh cadence whose 350 ns blackouts put a small floor under DRAM
// tail latency.
func DefaultTiming() Timing {
	return Timing{TRCD: 14, TCAS: 14, TRP: 14, TBurst: 3, TREFI: 7_800, TRFC: 350}
}

// refreshDelay pushes a start time out of any refresh blackout: the
// window [n*TREFI, n*TREFI+TRFC) is unavailable.
func (t Timing) refreshDelay(start int64) int64 {
	if t.TREFI <= 0 || t.TRFC <= 0 {
		return start
	}
	off := start % t.TREFI
	if off < t.TRFC {
		return start - off + t.TRFC
	}
	return start
}

// Geometry describes the device layout.
type Geometry struct {
	Channels    int
	BanksPerCh  int
	RowsPerBank int
	RowBytes    uint64 // bytes per row; a DRAM-cache set occupies one row
}

// DefaultGeometry sizes a device large enough for scaled experiments:
// 2 channels x 16 banks, 64 K rows of 32 KB (8-way sets of 4 KB pages).
func DefaultGeometry() Geometry {
	return Geometry{Channels: 2, BanksPerCh: 16, RowsPerBank: 65536, RowBytes: 8 * mem.PageSize}
}

// Banks returns the total number of banks.
func (g Geometry) Banks() int { return g.Channels * g.BanksPerCh }

// Rows returns the total number of rows across all banks.
func (g Geometry) Rows() int { return g.Banks() * g.RowsPerBank }

const noOpenRow = -1

type bank struct {
	openRow   int
	busyUntil int64
}

// Device is a DRAM device with per-bank row-buffer state. It is a timing
// model, not a data store: callers own the contents and ask the device
// only how long operations take.
type Device struct {
	Timing   Timing
	Geometry Geometry
	banks    []bank

	RowHits   stats.Counter
	RowMisses stats.Counter
	RowConfl  stats.Counter
}

// NewDevice returns a device with all rows closed.
func NewDevice(t Timing, g Geometry) *Device {
	if g.Banks() <= 0 || g.RowsPerBank <= 0 {
		panic(fmt.Sprintf("dram: invalid geometry %+v", g))
	}
	banks := make([]bank, g.Banks())
	for i := range banks {
		banks[i].openRow = noOpenRow
	}
	return &Device{Timing: t, Geometry: g, banks: banks}
}

// Loc identifies a row within the device.
type Loc struct {
	Bank int
	Row  int
}

// RowOf maps a global row index (0..Rows-1) onto a bank and in-bank row,
// interleaving consecutive rows across banks so streaming fills spread.
func (d *Device) RowOf(globalRow int) Loc {
	nb := d.Geometry.Banks()
	return Loc{Bank: globalRow % nb, Row: (globalRow / nb) % d.Geometry.RowsPerBank}
}

// Access performs blocks x 64 B column accesses to the given row starting
// at time now and returns the completion time. Row-buffer state determines
// whether an activate and/or precharge is charged. Reads and writes are
// priced identically at this fidelity.
func (d *Device) Access(now int64, loc Loc, blocks int) int64 {
	if blocks <= 0 {
		blocks = 1
	}
	b := &d.banks[loc.Bank]
	start := now
	if b.busyUntil > start {
		start = b.busyUntil
	}
	start = d.Timing.refreshDelay(start)
	var lat int64
	switch {
	case b.openRow == loc.Row:
		d.RowHits.Inc()
		lat = d.Timing.TCAS + int64(blocks)*d.Timing.TBurst
	case b.openRow == noOpenRow:
		d.RowMisses.Inc()
		lat = d.Timing.TRCD + d.Timing.TCAS + int64(blocks)*d.Timing.TBurst
	default:
		d.RowConfl.Inc()
		lat = d.Timing.TRP + d.Timing.TRCD + d.Timing.TCAS + int64(blocks)*d.Timing.TBurst
	}
	b.openRow = loc.Row
	b.busyUntil = start + lat
	return b.busyUntil
}

// BlocksPerPage is the number of 64 B bursts needed to move a 4 KB page.
const BlocksPerPage = mem.PageSize / mem.BlockSize
