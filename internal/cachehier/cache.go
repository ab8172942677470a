// Package cachehier models the on-chip cache hierarchy between the cores
// and the DRAM cache: L1/L2 latencies and a set-associative LRU
// last-level cache at 64 B block granularity. A core runs one access at
// a time, so on-chip MSHRs never bind and are not modelled; the miss
// signal of paper Section IV-C1 is a latency the system layer charges.
// The LLC is non-inclusive of the DRAM cache: a page the DRAM cache
// evicts keeps its blocks on chip until LLC replacement takes them.
package cachehier

import (
	"fmt"

	"astriflash/internal/mem"
)

// entry is one cache way in 16 bytes: the key (freeKey in a free way) and
// the last-touch stamp with the dirty bit in its low bit. Stamps step by 2
// and are unique per cache, so comparing lru words orders ways by last
// touch alone.
type entry struct {
	key uint64
	lru uint64
}

// freeKey marks a free way, so it is not a key: Insert panics on it.
// Block and page numbers, the keys in use, are shifted addresses and never
// reach it.
const freeKey = ^uint64(0)

// dirtyBit is the dirty flag in entry.lru.
func dirtyBit(dirty bool) uint64 {
	if dirty {
		return 1
	}
	return 0
}

// Cache is a set-associative cache with LRU replacement over uint64 keys
// (block numbers for data caches, page numbers for TLBs). It tracks only
// presence and dirtiness; data contents live with the workloads. Entries
// live in one flat array indexed set*ways+way: construction is a single
// allocation (a sweep builds thousands of caches) and probes stay within
// one or two hardware cache lines per set.
type Cache struct {
	sets    int
	ways    int
	entries []entry
	stamp   uint64 // the last stamp handed out, always even
}

// NewCache returns an empty cache with the given geometry. Sets must be a
// power of two.
func NewCache(sets, ways int) *Cache {
	if sets <= 0 || ways <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cachehier: invalid geometry sets=%d ways=%d", sets, ways))
	}
	c := &Cache{sets: sets, ways: ways, entries: make([]entry, sets*ways)}
	for i := range c.entries {
		c.entries[i].key = freeKey
	}
	return c
}

// set returns the ways of set s as a subslice of the flat entry store.
func (c *Cache) set(s int) []entry {
	return c.entries[s*c.ways : (s+1)*c.ways]
}

func (c *Cache) setOf(key uint64) int {
	// Multiplicative hashing spreads strided key patterns across sets.
	h := key * 0x9e3779b97f4a7c15
	return int(h>>32) & (c.sets - 1)
}

// Lookup probes for key and updates LRU on a hit. On a write hit the line
// is marked dirty. It reports whether the key was present.
func (c *Cache) Lookup(key uint64, write bool) bool {
	s := c.set(c.setOf(key))
	for w := range s {
		if s[w].key == key {
			c.stamp += 2
			s[w].lru = c.stamp | s[w].lru&1 | dirtyBit(write)
			return true
		}
	}
	return false
}

// Contains probes without updating LRU.
func (c *Cache) Contains(key uint64) bool {
	for _, e := range c.set(c.setOf(key)) {
		if e.key == key {
			return true
		}
	}
	return false
}

// Victim describes an eviction produced by Insert.
type Victim struct {
	Key   uint64
	Dirty bool
}

// Insert fills key into its set, evicting the LRU way if the set is full.
// It returns the victim, if any. Inserting an already-present key only
// refreshes its LRU state. The key ^uint64(0) marks free ways and panics.
func (c *Cache) Insert(key uint64, dirty bool) (Victim, bool) {
	if key == freeKey {
		panic("cachehier: Insert of the free-way key ^uint64(0)")
	}
	s := c.set(c.setOf(key))
	c.stamp += 2
	// Refresh if present.
	for w := range s {
		if s[w].key == key {
			s[w].lru = c.stamp | s[w].lru&1 | dirtyBit(dirty)
			return Victim{}, false
		}
	}
	// Free way?
	for w := range s {
		if s[w].key == freeKey {
			s[w] = entry{key: key, lru: c.stamp | dirtyBit(dirty)}
			return Victim{}, false
		}
	}
	// Evict LRU.
	lruWay := 0
	for w := 1; w < len(s); w++ {
		if s[w].lru < s[lruWay].lru {
			lruWay = w
		}
	}
	v := Victim{Key: s[lruWay].key, Dirty: s[lruWay].lru&1 == 1}
	s[lruWay] = entry{key: key, lru: c.stamp | dirtyBit(dirty)}
	return v, true
}

// Hierarchy is the per-core on-chip stack: latencies for L1/L2 folded
// into compute plus an explicit LLC model. A single Access answers with
// the on-chip latency and whether the request must continue to the DRAM
// cache.
type Hierarchy struct {
	L1Latency  int64 // charged on every access
	L2Latency  int64 // charged on L1 miss (modeled probabilistically via LLC)
	LLCLatency int64 // charged on LLC probe
	LLC        *Cache

	// WritebackSink receives dirty LLC victims (block keys); the system
	// layer forwards them to the DRAM cache as writes.
	WritebackSink func(block uint64)
}

// HierConfig configures a Hierarchy.
type HierConfig struct {
	L1Latency  int64
	L2Latency  int64
	LLCLatency int64
	LLCSets    int
	LLCWays    int
}

// DefaultHierConfig approximates the paper's Table I per-core stack:
// 1 MB LLC per core (16384 sets x 16 ways of 64 B at 16 cores is scaled
// down here to keep simulation state small), ~40-cycle LLC at 2.5 GHz.
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1Latency:  2,
		L2Latency:  5,
		LLCLatency: 16,
		LLCSets:    1024,
		LLCWays:    16,
	}
}

// NewHierarchy builds the stack.
func NewHierarchy(cfg HierConfig) *Hierarchy {
	return &Hierarchy{
		L1Latency:  cfg.L1Latency,
		L2Latency:  cfg.L2Latency,
		LLCLatency: cfg.LLCLatency,
		LLC:        NewCache(cfg.LLCSets, cfg.LLCWays),
	}
}

// AccessResult reports how far into the hierarchy a request had to travel.
type AccessResult struct {
	Latency int64 // on-chip portion of the access latency
	ToDRAM  bool  // true when the request continues to the DRAM cache
}

// Access probes the on-chip stack for the given address. On an LLC miss
// the block is NOT yet installed: the caller installs it via Fill once the
// DRAM cache (or flash) answers, mirroring a real miss path.
func (h *Hierarchy) Access(a mem.Access) AccessResult {
	block := mem.BlockOf(a.Addr)
	if h.LLC.Lookup(block, a.Write) {
		return AccessResult{Latency: h.L1Latency + h.LLCLatency, ToDRAM: false}
	}
	return AccessResult{Latency: h.L1Latency + h.L2Latency + h.LLCLatency, ToDRAM: true}
}

// Fill installs the block after a lower-level reply, forwarding any dirty
// victim to the writeback sink.
func (h *Hierarchy) Fill(a mem.Access) {
	block := mem.BlockOf(a.Addr)
	if v, evicted := h.LLC.Insert(block, a.Write); evicted && v.Dirty && h.WritebackSink != nil {
		h.WritebackSink(v.Key)
	}
}
