package dramcache

import (
	"astriflash/internal/mem"
	"astriflash/internal/stats"
)

// Footprint-cache support (paper Section II-A cites Footprint Cache
// [Jevdjic et al., ISCA'13] as the optimization that cuts the flash
// bandwidth a page-granularity cache demands): instead of moving whole
// 4 KB pages, the backside controller fetches only the blocks a page's
// previous generation actually used — its footprint — and fills the rest
// on demand.
//
// The model keeps a per-line block bitmap and a footprint history table.
// On a miss, BC fetches the predicted footprint (falling back to the
// whole page without history); an access to an unfetched block of a
// resident page is a footprint underprediction, charged a secondary
// flash fetch. The history table records each page's observed footprint
// at eviction, the same generational learning the original design uses.

// FootprintConfig tunes the extension.
type FootprintConfig struct {
	// Enabled turns footprint fetching on.
	Enabled bool
	// HistoryEntries bounds the footprint history table.
	HistoryEntries int
	// DefaultBlocks is the fetch size for pages with no history, in 64 B
	// blocks (a whole page is 64).
	DefaultBlocks int
}

// DefaultFootprintConfig fetches half a page for unknown pages and
// remembers 4 K footprints.
func DefaultFootprintConfig() FootprintConfig {
	return FootprintConfig{Enabled: true, HistoryEntries: 4096, DefaultBlocks: 32}
}

// footprintState augments the cache when the extension is on.
type footprintState struct {
	cfg FootprintConfig
	// valid tracks fetched blocks per resident page.
	valid map[mem.PageNum]*blockSet
	// history maps a page to the footprint observed in its last
	// generation.
	history map[mem.PageNum]*blockSet
	// fifo evicts history entries in insertion order.
	fifo []mem.PageNum

	Underpredictions stats.Counter
	BlocksFetched    stats.Counter
	BlocksSaved      stats.Counter
}

// blockSet is a 64-bit bitmap over a page's 64 blocks.
type blockSet uint64

func (b *blockSet) set(i uint64)      { *b |= 1 << (i & 63) }
func (b *blockSet) has(i uint64) bool { return *b&(1<<(i&63)) != 0 }
func (b blockSet) count() int {
	n := 0
	for ; b != 0; b &= b - 1 {
		n++
	}
	return n
}

// EnableFootprint switches the cache into footprint-fetch mode. Call
// before any traffic.
func (c *Cache) EnableFootprint(cfg FootprintConfig) {
	if cfg.HistoryEntries <= 0 {
		cfg.HistoryEntries = 4096
	}
	if cfg.DefaultBlocks <= 0 || cfg.DefaultBlocks > blocksPerPage {
		cfg.DefaultBlocks = blocksPerPage / 2
	}
	c.fp = &footprintState{
		cfg:     cfg,
		valid:   make(map[mem.PageNum]*blockSet),
		history: make(map[mem.PageNum]*blockSet),
	}
}

// Footprint exposes the extension's statistics (nil when disabled). It
// is how internal/system's tests see the extension: its counters are not
// registered metrics, which would change the OpenMetrics exposition.
func (c *Cache) Footprint() *footprintState { return c.fp }

const blocksPerPage = mem.PageSize / mem.BlockSize

// blockIndex returns the block-within-page of an address.
func blockIndex(a mem.Addr) uint64 { return (uint64(a) >> mem.BlockShift) & (blocksPerPage - 1) }

// fpOnAccess records a touched block and reports whether the block is
// resident; a false return on a resident page is an underprediction that
// needs a secondary fetch.
func (f *footprintState) fpOnAccess(p mem.PageNum, a mem.Addr) bool {
	bs, ok := f.valid[p]
	if !ok {
		return true // page not footprint-tracked (preloaded): whole page
	}
	idx := blockIndex(a)
	if bs.has(idx) {
		return true
	}
	f.Underpredictions.Inc()
	bs.set(idx) // the secondary fetch brings it in
	return false
}

// fpOnInstall decides how many blocks to fetch for page p and records the
// resulting valid set. It returns the block count (the page transfer
// cost).
func (f *footprintState) fpOnInstall(p mem.PageNum, firstAccess mem.Addr) int {
	bs := new(blockSet)
	if hist, ok := f.history[p]; ok && hist.count() > 0 {
		*bs = *hist
	} else {
		// No history: fetch a contiguous default window around the
		// faulting block.
		start := blockIndex(firstAccess)
		for i := 0; i < f.cfg.DefaultBlocks; i++ {
			bs.set((start + uint64(i)) % blocksPerPage)
		}
	}
	bs.set(blockIndex(firstAccess))
	f.valid[p] = bs
	n := bs.count()
	f.BlocksFetched.Add(uint64(n))
	f.BlocksSaved.Add(uint64(blocksPerPage - n))
	return n
}

// fpOnEvict learns the page's footprint for its next generation.
func (f *footprintState) fpOnEvict(p mem.PageNum) {
	bs, ok := f.valid[p]
	if !ok {
		return
	}
	delete(f.valid, p)
	if _, exists := f.history[p]; !exists {
		if len(f.fifo) >= f.cfg.HistoryEntries {
			oldest := f.fifo[0]
			f.fifo = f.fifo[1:]
			delete(f.history, oldest)
		}
		f.fifo = append(f.fifo, p)
	}
	f.history[p] = bs
}
