// Package dramcache implements the paper's hardware-managed DRAM cache
// (Sections III-B2 and IV-B): a set-associative page-granularity cache
// whose sets are DRAM rows with tags stored in-row, a frontside controller
// (FC) that makes hit/miss decisions, and a backside controller (BC) that
// talks to flash, manages evictions through an evict buffer, and tracks
// hundreds of concurrent misses in an in-DRAM Miss Status Row (MSR)
// instead of CAM-based MSHRs.
package dramcache

import (
	"fmt"

	"astriflash/internal/mem"
	"astriflash/internal/stats"
)

// MSR is the Miss Status Row: a set-associative miss-tracking structure
// held in a dedicated DRAM row. Each entry is 8 B (a page address plus
// metadata), retrieved with a single CAS, so lookups are one DRAM column
// access instead of a CAM probe (Section IV-B2).
//
// The entries are one flat array, set i's ways at [i*ways, (i+1)*ways).
// An entry holds its page plus one, so the zero value marks a free way
// (page numbers are addresses shifted right by 12 bits: page+1 never
// wraps).
type MSR struct {
	sets    int
	ways    int
	entries []mem.PageNum

	Allocs    stats.Counter
	Dups      stats.Counter
	FullWaits stats.Counter
}

// NewMSR returns an MSR with the given geometry. A 64 B CAS fetches 8
// entries, so ways is naturally 8; sets scale with the number of
// concurrent misses to track.
func NewMSR(sets, ways int) *MSR {
	if sets <= 0 || ways <= 0 {
		panic(fmt.Sprintf("dramcache: invalid MSR geometry %dx%d", sets, ways))
	}
	return &MSR{sets: sets, ways: ways, entries: make([]mem.PageNum, sets*ways)}
}

// Capacity returns the total number of trackable misses.
func (m *MSR) Capacity() int { return m.sets * m.ways }

// Outstanding returns the number of in-flight tracked misses.
func (m *MSR) Outstanding() int {
	n := 0
	for _, e := range m.entries {
		if e != 0 {
			n++
		}
	}
	return n
}

func (m *MSR) setOf(p mem.PageNum) int {
	h := uint64(p) * 0x9e3779b97f4a7c15
	return int(h>>33) % m.sets
}

// set returns page p's set: its ways' entries.
func (m *MSR) set(p mem.PageNum) []mem.PageNum {
	i := m.setOf(p)
	return m.entries[i*m.ways : (i+1)*m.ways]
}

// Lookup reports whether a miss for page p is already pending.
func (m *MSR) Lookup(p mem.PageNum) bool {
	for _, e := range m.set(p) {
		if e == p+1 {
			return true
		}
	}
	return false
}

// Allocate records a pending miss for p. It returns:
//
//	AllocNew  — entry created, caller must fetch from flash;
//	AllocDup  — a fetch is already pending, caller discards the request;
//	AllocFull — the set has no free entries, caller must wait for a
//	            pending flash request to complete (Section IV-B2).
func (m *MSR) Allocate(p mem.PageNum) AllocResult {
	s := m.set(p)
	free := -1
	for w, e := range s {
		switch {
		case e == p+1:
			m.Dups.Inc()
			return AllocDup
		case e == 0 && free < 0:
			free = w
		}
	}
	if free < 0 {
		m.FullWaits.Inc()
		return AllocFull
	}
	s[free] = p + 1
	m.Allocs.Inc()
	return AllocNew
}

// Complete frees the entry for p when its page arrives. Completing an
// untracked page is a protocol violation and panics.
func (m *MSR) Complete(p mem.PageNum) {
	s := m.set(p)
	for w, e := range s {
		if e == p+1 {
			s[w] = 0
			return
		}
	}
	panic(fmt.Sprintf("dramcache: MSR completing untracked page %d", p))
}

// check returns "" when every entry sits in its page's set and no set
// tracks a page twice, else a description of the first violation.
func (m *MSR) check() string {
	for i, e := range m.entries {
		if e == 0 {
			continue
		}
		p, set, way := e-1, i/m.ways, i%m.ways
		if m.setOf(p) != set {
			return fmt.Sprintf("MSR page %d in wrong set %d", p, set)
		}
		for _, q := range m.entries[set*m.ways : i] {
			if q == e {
				return fmt.Sprintf("MSR page %d tracked twice in set %d (way %d)", p, set, way)
			}
		}
	}
	return ""
}

// AllocResult is the outcome of an MSR allocation attempt.
type AllocResult int

// Allocation outcomes.
const (
	AllocNew AllocResult = iota
	AllocDup
	AllocFull
)

func (r AllocResult) String() string {
	switch r {
	case AllocNew:
		return "new"
	case AllocDup:
		return "dup"
	case AllocFull:
		return "full"
	default:
		return fmt.Sprintf("AllocResult(%d)", int(r))
	}
}
