// Package tlbvm models the address-translation machinery the paper's
// Section IV-A depends on: per-core TLBs, radix page tables, a serialized
// walker for table pages behind the DRAM cache, where cold walks can
// reach flash (the AstriFlash-noDP configuration; in AstriFlash's default
// flat DRAM partition a walk is PTLevels fixed-latency reads), and the
// broadcast TLB-shootdown cost model that makes OS-Swap scale poorly.
package tlbvm

import (
	"fmt"

	"astriflash/internal/cachehier"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// TLBConfig sizes one TLB.
type TLBConfig struct {
	Sets       int
	Ways       int
	HitLatency int64 // folded into the L1 access in real cores; ~1 ns
}

// DefaultTLBConfig approximates a 1.5 K-entry two-level TLB flattened into
// one structure.
func DefaultTLBConfig() TLBConfig {
	return TLBConfig{Sets: 128, Ways: 8, HitLatency: 1}
}

// TLB caches virtual-to-physical page translations. AstriFlash maps flash
// through BARs so translations are stable; OS-Swap remaps on every page
// migration and must shoot entries down. Shootdowns are priced by
// ShootdownModel, not applied: no TLB entry is ever invalidated.
type TLB struct {
	cache  *cachehier.Cache
	hitLat int64
}

// NewTLB returns an empty TLB.
func NewTLB(cfg TLBConfig) *TLB {
	return &TLB{cache: cachehier.NewCache(cfg.Sets, cfg.Ways), hitLat: cfg.HitLatency}
}

// Lookup probes for vpn; on a hit it returns (hitLatency, true).
func (t *TLB) Lookup(vpn mem.PageNum) (int64, bool) {
	return t.hitLat, t.cache.Lookup(uint64(vpn), false)
}

// Insert fills a translation after a walk.
func (t *TLB) Insert(vpn mem.PageNum) { t.cache.Insert(uint64(vpn), false) }

// PTLevels is the depth of every page table: four radix levels, as in
// x86-64 and ARM granule layouts.
const PTLevels = 4

// PageTable is a radix page table over the workload's virtual page range.
// It exists to give walks realistic page-level locality: translations for
// neighboring VPNs share table pages, so hot regions keep their table
// pages hot.
type PageTable struct {
	fanoutLog uint // log2 entries per table page (512 => 9)
	regionOf  []mem.PageNum
	pages     []uint64 // table pages per level
}

// NewPageTableFanout builds a table covering vpns virtual pages, with
// table pages allocated from tableBase upward and 2^fanoutLog entries per
// node (9 gives x86-64's 512-entry nodes).
// Scaled-down simulations use a smaller fanout so the page-table working
// set keeps the same proportion to the DRAM cache that a full-scale
// 512-ary table over a TB dataset has — otherwise a few leaf pages cover
// the whole scaled dataset and the noDP configuration shows no flash
// walks.
func NewPageTableFanout(vpns uint64, tableBase mem.PageNum, fanoutLog uint) *PageTable {
	if fanoutLog < 1 || fanoutLog > 9 {
		panic(fmt.Sprintf("tlbvm: fanout log %d out of [1,9]", fanoutLog))
	}
	pt := &PageTable{fanoutLog: fanoutLog}
	base := tableBase
	// Level 0 is the leaf level: one entry per VPN.
	for l := 0; l < PTLevels; l++ {
		entries := vpns >> (pt.fanoutLog * uint(l))
		if entries == 0 {
			entries = 1
		}
		pages := (entries + (1 << pt.fanoutLog) - 1) >> pt.fanoutLog
		pt.regionOf = append(pt.regionOf, base)
		pt.pages = append(pt.pages, pages)
		base += mem.PageNum(pages)
	}
	return pt
}

// TotalPages returns the table's footprint in pages.
func (pt *PageTable) TotalPages() uint64 {
	var n uint64
	for _, p := range pt.pages {
		n += p
	}
	return n
}

// WalkPages returns the table pages touched translating vpn, from the
// root level down to the leaf.
func (pt *PageTable) WalkPages(vpn mem.PageNum) []mem.PageNum {
	out := make([]mem.PageNum, 0, PTLevels)
	for l := PTLevels - 1; l >= 0; l-- {
		entry := uint64(vpn) >> (pt.fanoutLog * uint(l))
		pageIdx := entry >> pt.fanoutLog
		if pageIdx >= pt.pages[l] {
			pageIdx = pt.pages[l] - 1
		}
		out = append(out, pt.regionOf[l]+mem.PageNum(pageIdx))
	}
	return out
}

// PTBackend answers the walker's memory accesses. The system's backend
// routes through the DRAM cache, where a cold table page goes to flash
// (AstriFlash-noDP); walks in the flat DRAM partition cost a fixed
// PTLevels accesses and need no walker.
type PTBackend interface {
	// AccessPT reads one table entry on page p; done fires when the
	// entry is available.
	AccessPT(p mem.PageNum, done func(at sim.Time))
}

// Walker performs serialized radix walks against a backend.
type Walker struct {
	PT      *PageTable
	Backend PTBackend
}

// NewWalker returns a walker over pt.
func NewWalker(pt *PageTable, b PTBackend) *Walker {
	return &Walker{PT: pt, Backend: b}
}

// Walk translates vpn, touching each level's table page in order, and
// calls done when the leaf entry is read. The walk is serialized: level
// N+1's access begins only when level N's data arrives, which is why
// flash-resident table pages destroy tail latency (Table II, noDP).
func (w *Walker) Walk(eng *sim.Engine, vpn mem.PageNum, done func(at sim.Time)) {
	pages := w.PT.WalkPages(vpn)
	var step func(i int)
	step = func(i int) {
		if i >= len(pages) {
			done(eng.Now())
			return
		}
		w.Backend.AccessPT(pages[i], func(sim.Time) { step(i + 1) })
	}
	step(0)
}

// ShootdownModel prices broadcast TLB shootdowns (Section II-C): an
// initiator-side fixed cost plus a per-responder cost, growing linearly
// with core count — over 10 us on big machines.
type ShootdownModel struct {
	BaseNs    int64 // initiator IPI setup and wait
	PerCoreNs int64 // per-responder interrupt + invalidate + ack
}

// DefaultShootdownModel calibrates to ~10 us at 16 cores.
func DefaultShootdownModel() ShootdownModel {
	return ShootdownModel{BaseNs: 2_000, PerCoreNs: 500}
}

// Latency returns the initiator-visible shootdown time for n cores.
func (m ShootdownModel) Latency(cores int) int64 {
	if cores < 1 {
		cores = 1
	}
	return m.BaseNs + int64(cores)*m.PerCoreNs
}

// Validate rejects nonsensical models.
func (m ShootdownModel) Validate() error {
	if m.BaseNs < 0 || m.PerCoreNs < 0 {
		return fmt.Errorf("tlbvm: negative shootdown costs %+v", m)
	}
	return nil
}
