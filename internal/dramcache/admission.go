package dramcache

// Flashield-style admission filtering for the DRAM cache: a miss no
// longer buys a page an unconditional installation. A deterministic
// AdmissionPolicy decides per fetch whether the arriving page enters the
// cache proper; rejected pages land in a small BC-side bypass ring so the
// missing access still completes (and short-lived reuse is still served)
// without evicting a resident page — the eviction-and-writeback churn
// that turns cold single-use traffic into flash wear.
//
// Determinism rules (DESIGN.md §11): policies hold no RNG and consult no
// wall clock; every decision is a pure function of the access stream the
// cache has shown the policy so far. Sweeps with admission filtering are
// therefore byte-identical across worker counts, and a nil policy (the
// "admit-all" default) leaves the cache bit-identical to the pre-filter
// code: every filtering branch is guarded by c.adm != nil.

import (
	"fmt"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// AdmissionPolicy decides which missed pages may be installed in the
// cache proper. Implementations must be deterministic: no randomness, no
// host state, decisions driven only by the observed access stream.
type AdmissionPolicy interface {
	// Name identifies the policy in tables and flag values.
	Name() string
	// Admit reports whether the fetch for page p (triggered by a write
	// access when write is set) may install into the cache; rejected
	// fetches land in the bypass ring.
	Admit(p mem.PageNum, write bool) bool
	// OnAccess observes every cache access after its hit/miss status is
	// known, including bypass-ring hits.
	OnAccess(p mem.PageNum, write, hit bool)
	// OnEvict feeds back whether a page leaving the cache or the ring saw
	// any reuse during its residency; hit-economics policies adapt their
	// admission bar from the unreused fraction.
	OnEvict(p mem.PageNum, reused bool)
}

// AdmissionConfig selects and tunes the admission policy.
type AdmissionConfig struct {
	// Policy is "" or "admit-all" (no filtering, bit-identical to the
	// unfiltered cache), "write-threshold", or "hit-economics".
	Policy string
	// Threshold is the write-threshold policy's admission bar: a page is
	// admitted once its region has accumulated at least this many
	// accesses in the current decay window (0 = default 2). It is also
	// the hit-economics policy's starting bar.
	Threshold int
	// RegionPages is the granularity reuse is tracked at, in pages
	// (0 = default 16). Regions approximate objects: per-page counts on
	// a scaled cache are too sparse to prove reuse before eviction.
	RegionPages int
	// BypassPages sizes the bypass ring (0 = default 64 pages).
	BypassPages int
}

// NewAdmissionPolicy builds the configured policy; admit-all (and the
// empty string) return nil, which the cache treats as no filtering at
// all. Unknown names are an error.
func NewAdmissionPolicy(cfg AdmissionConfig) (AdmissionPolicy, error) {
	threshold := cfg.Threshold
	if threshold <= 0 {
		threshold = 2
	}
	regionPages := cfg.RegionPages
	if regionPages <= 0 {
		regionPages = 16
	}
	switch cfg.Policy {
	case "", "admit-all":
		return nil, nil
	case "write-threshold":
		return newRegionPolicy("write-threshold", regionPages, threshold, false), nil
	case "hit-economics":
		return newRegionPolicy("hit-economics", regionPages, threshold, true), nil
	default:
		return nil, fmt.Errorf("dramcache: unknown admission policy %q", cfg.Policy)
	}
}

// regionShift converts a region size in pages to a shift amount.
func regionShift(regionPages int) uint {
	s := uint(0)
	for 1<<s < regionPages {
		s++
	}
	return s
}

// regionPolicy implements both filtering policies over decaying
// per-region access counts.
//
// write-threshold is the static filter: a page is admitted once its
// region has proven Threshold accesses inside the current decay window,
// so one-touch cold traffic never displaces residents.
//
// hit-economics is the Flashield-style adaptive filter: same reuse
// ledger, but only read reuse earns admission credit (a write that never
// gets re-read buys nothing back for the flash writes it will cost), and
// the admission bar moves with measured eviction economics — every
// adaptEvery evictions the policy looks at the fraction of evictees that
// left without any reuse and raises the bar when installs are not paying
// for themselves, lowers it when nearly all are.
type regionPolicy struct {
	name     string
	shift    uint
	bar      int
	adaptive bool

	// counts is the per-region reuse ledger, indexed by region and grown
	// to the highest region seen. Every decayEvery observed accesses all
	// counts halve (rounding down), so the ledger tracks the current mix
	// instead of the whole run. The halving is lazy: epoch counts the
	// decays, and a count last written in epoch e is worth n>>(epoch-e)
	// now, since k floor-halvings are one shift by k.
	counts     []regionCount
	epoch      uint32
	accesses   uint64
	decayEvery uint64

	// Eviction-feedback window (adaptive only).
	evicted    int
	unreused   int
	adaptEvery int
	minBar     int
	maxBar     int
}

func newRegionPolicy(name string, regionPages, threshold int, adaptive bool) *regionPolicy {
	return &regionPolicy{
		name:       name,
		shift:      regionShift(regionPages),
		bar:        threshold,
		adaptive:   adaptive,
		decayEvery: 1 << 15,
		adaptEvery: 256,
		minBar:     1,
		maxBar:     64,
	}
}

// regionCount is one region's ledger entry: its count as of epoch.
type regionCount struct {
	n, epoch uint32
}

func (rp *regionPolicy) region(p mem.PageNum) uint64 { return uint64(p) >> rp.shift }

// count returns region r's count in the current epoch.
func (rp *regionPolicy) count(r uint64) uint32 {
	if r >= uint64(len(rp.counts)) {
		return 0
	}
	e := rp.counts[r]
	return e.n >> (rp.epoch - e.epoch)
}

// Name implements AdmissionPolicy.
func (rp *regionPolicy) Name() string { return rp.name }

// Admit implements AdmissionPolicy: the fetched page's region must have
// proven at least bar accesses in the current window.
func (rp *regionPolicy) Admit(p mem.PageNum, write bool) bool {
	return int(rp.count(rp.region(p))) >= rp.bar
}

// OnAccess implements AdmissionPolicy: credit the region's ledger and
// run the periodic decay. The adaptive policy only credits reads — write
// traffic alone never earns a region admission.
func (rp *regionPolicy) OnAccess(p mem.PageNum, write, hit bool) {
	if !rp.adaptive || !write {
		r := rp.region(p)
		if r >= uint64(len(rp.counts)) {
			rp.counts = append(rp.counts, make([]regionCount, r+1-uint64(len(rp.counts)))...)
		}
		rp.counts[r] = regionCount{n: rp.count(r) + 1, epoch: rp.epoch}
	}
	rp.accesses++
	if rp.accesses%rp.decayEvery == 0 {
		rp.epoch++
	}
}

// OnEvict implements AdmissionPolicy: the adaptive policy widens or
// tightens its bar from the unreused-evictee fraction.
func (rp *regionPolicy) OnEvict(p mem.PageNum, reused bool) {
	if !rp.adaptive {
		return
	}
	rp.evicted++
	if !reused {
		rp.unreused++
	}
	if rp.evicted < rp.adaptEvery {
		return
	}
	frac := float64(rp.unreused) / float64(rp.evicted)
	switch {
	case frac > 0.5 && rp.bar < rp.maxBar:
		// Most installs left without reuse: admissions are not paying
		// for their eviction churn. Raise the bar.
		rp.bar *= 2
	case frac < 0.1 && rp.bar > rp.minBar:
		// Nearly every install proved reuse: the filter may be starving
		// admissible pages. Lower the bar.
		rp.bar /= 2
	}
	rp.evicted, rp.unreused = 0, 0
}

// ringEntry is one page staged in the bypass ring.
type ringEntry struct {
	page  mem.PageNum
	dirty bool
	stamp sim.Time // latest use, as line.lru
	hits  uint32
}

// bypassRing is the BC-side staging buffer rejected fetches land in: a
// small fully-associative page store (index map + entry slice) with LRU
// eviction that honors pins. Dirty entries write back to flash on
// eviction, so a rejected write-hot page costs one coalesced flash write
// per ring residency — the same write-through economics an admitted page
// would eventually pay, without displacing a resident.
type bypassRing struct {
	cap     int
	entries []ringEntry
	idx     map[mem.PageNum]int
}

func newBypassRing(capPages int) *bypassRing {
	if capPages <= 0 {
		capPages = 64
	}
	return &bypassRing{cap: capPages, idx: make(map[mem.PageNum]int)}
}

// lookup returns the entry index for p, or -1.
func (b *bypassRing) lookup(p mem.PageNum) int {
	if i, ok := b.idx[p]; ok {
		return i
	}
	return -1
}

// removeAt deletes entry i, keeping the slice compact (swap with last).
func (b *bypassRing) removeAt(i int) ringEntry {
	e := b.entries[i]
	last := len(b.entries) - 1
	if i != last {
		b.entries[i] = b.entries[last]
		b.idx[b.entries[i].page] = i
	}
	b.entries = b.entries[:last]
	delete(b.idx, e.page)
	return e
}

// victim returns the index of the LRU entry whose page is not pinned, or
// -1 when every entry is pinned (the ring then grows past cap until pins
// release — forward progress beats a fixed footprint on a scaled cache).
func (b *bypassRing) victim(pinned map[mem.PageNum]int) int {
	best := -1
	var bestStamp sim.Time
	for i := range b.entries {
		if pinned[b.entries[i].page] > 0 {
			continue
		}
		if best < 0 || b.entries[i].stamp < bestStamp {
			best, bestStamp = i, b.entries[i].stamp
		}
	}
	return best
}
