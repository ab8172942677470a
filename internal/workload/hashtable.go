package workload

import (
	"fmt"
	"math/bits"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("hashtable", func(cfg Config) Workload { return NewHashTableWorkload(cfg) }) }

// htSlot is one open-addressing slot; 64 B in the arena so each probe is
// one cache-block access.
type htSlot struct {
	key  uint64
	val  uint64
	used bool
}

// HashTable is an open-addressing hash table with linear probing over
// arena-addressed slots. Probe chains produce the short dependent access
// runs the paper's Hash Table microbenchmark exercises.
type HashTable struct {
	slots []htSlot
	base  mem.Addr
	mask  uint64
	used  uint64
}

// NewHashTable builds a table with capacity slots (rounded up to a power
// of two) allocated contiguously in the arena.
func NewHashTable(arena *mem.Arena, capacity uint64) *HashTable {
	n := uint64(1)
	for n < capacity {
		n <<= 1
	}
	base := arena.Alloc(n*64, mem.PageSize)
	return &HashTable{slots: make([]htSlot, n), base: base, mask: n - 1}
}

// Capacity returns the slot count.
func (h *HashTable) Capacity() uint64 { return uint64(len(h.slots)) }

func (h *HashTable) slotAddr(i uint64) mem.Addr { return h.base + mem.Addr(i*64) }

func (h *HashTable) hash(key uint64) uint64 {
	x := key * 0xff51afd7ed558ccd
	x ^= x >> 33
	return x & h.mask
}

// Get probes for key, tracing every slot touched.
func (h *HashTable) Get(key uint64, tr *Tracer) (uint64, bool) {
	i := h.hash(key)
	for probes := uint64(0); probes <= h.mask; probes++ {
		tr.Touch(h.slotAddr(i), false)
		s := &h.slots[i]
		if !s.used {
			return 0, false
		}
		if s.key == key {
			return s.val, true
		}
		i = (i + 1) & h.mask
	}
	return 0, false
}

// Put inserts or overwrites key, tracing probes and the final write. It
// panics when the table is full: the workloads bound the load factor.
func (h *HashTable) Put(key, val uint64, tr *Tracer) {
	i := h.hash(key)
	for probes := uint64(0); probes <= h.mask; probes++ {
		tr.Touch(h.slotAddr(i), false)
		s := &h.slots[i]
		if !s.used {
			s.used = true
			s.key = key
			s.val = val
			h.used++
			tr.Touch(h.slotAddr(i), true)
			return
		}
		if s.key == key {
			s.val = val
			tr.Touch(h.slotAddr(i), true)
			return
		}
		i = (i + 1) & h.mask
	}
	panic(fmt.Sprintf("workload: hash table full at %d slots", len(h.slots)))
}

// HashTableWorkload drives Zipfian Get/Put traffic.
type HashTableWorkload struct {
	cfg   Config
	table *HashTable
	arena *mem.Arena
	keys  uint64
	zipf  sampler
	rng   *sim.RNG
	jobTr Tracer
}

// NewHashTableWorkload builds a table at ~70% load over the configured
// dataset.
func NewHashTableWorkload(cfg Config) *HashTableWorkload {
	slots := cfg.DatasetBytes / 64
	// The table rounds slots up to a power of two, up to twice the
	// dataset, so the arena is the dataset plus 50% or the table,
	// whichever is larger.
	tableBytes := uint64(64) << bits.Len64(slots-1)
	arena := mem.NewArena(0, max(cfg.DatasetBytes+cfg.DatasetBytes/2, tableBytes))
	ht := NewHashTable(arena, slots)
	keys := ht.Capacity() * 7 / 10
	for i := uint64(0); i < keys; i++ {
		ht.Put(scrambleKey(i), i, nil)
	}
	rng := newRNG(cfg, 0x47a5)
	return &HashTableWorkload{
		cfg:   cfg,
		table: ht,
		arena: arena,
		keys:  keys,
		// Hash placement scatters hot keys roughly one per page, plus
		// probe-chain spill.
		zipf: newSampler(cfg, rng, keys, hotPageBudget(cfg)/2+1),
		rng:  rng,
	}
}

// Name implements Workload.
func (w *HashTableWorkload) Name() string { return "hashtable" }

// DatasetPages implements Workload.
func (w *HashTableWorkload) DatasetPages() uint64 { return w.arena.Pages() }

// Table exposes the structure for tests.
func (w *HashTableWorkload) Table() *HashTable { return w.table }

// NewJobSteps performs OpsPerJob lookups with a WriteFraction update mix.
// The trace is written into buf.
func (w *HashTableWorkload) NewJobSteps(buf []Step) []Step {
	w.jobTr.Reset(w.cfg.ComputePerAccessNs, buf)
	tr := &w.jobTr
	for op := 0; op < w.cfg.OpsPerJob; op++ {
		key := scrambleKey(w.zipf.Next())
		if w.rng.Float64() < w.cfg.WriteFraction {
			w.table.Put(key, w.rng.Uint64(), tr)
		} else {
			w.table.Get(key, tr)
		}
	}
	return tr.Take()
}
