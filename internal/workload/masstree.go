package workload

import (
	"encoding/binary"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("masstree", func(cfg Config) Workload { return NewMasstreeWorkload(cfg) }) }

// Masstree is a trie of B+-trees (Mao et al., EuroSys'12; the Tailbench
// masstree workload the paper ports): keys are byte strings consumed
// eight bytes per layer, each layer a B+-tree of slices whose entries
// either end a key (vals) or lead to the next layer's tree (next). Long
// keys therefore chase through multiple tree descents — the deepest
// pointer-chasing pattern in the suite. A key's last slice is zero-padded
// and stored with its length, as Masstree's keylenx does, so "ab" and
// "ab\x00" are different keys.
type Masstree struct {
	arena *mem.Arena
	root  *mtLayer
	size  uint64
}

type mtLayer struct {
	tree *BPTree
	// next maps an 8-byte slice value to the deeper layer handling keys
	// that share it.
	next map[uint64]*mtLayer
	// vals[n] holds the values of keys that end at this layer with an
	// n-byte last slice; a map is made on its first key.
	vals [9]map[uint64]uint64
}

// NewMasstree returns an empty trie.
func NewMasstree(arena *mem.Arena) *Masstree {
	return &Masstree{arena: arena, root: newMTLayer(arena)}
}

func newMTLayer(arena *mem.Arena) *mtLayer {
	return &mtLayer{tree: NewBPTree(arena, 256), next: make(map[uint64]*mtLayer)}
}

// Size returns the number of stored keys.
func (m *Masstree) Size() uint64 { return m.size }

// slices splits a key into 8-byte big-endian slices, the last one
// zero-padded, appending them to buf[:0], and returns the last slice's
// length in bytes: 0 only for the empty key, whose one slice is 0. Put,
// Get and Update pass a two-slice stack array, which holds the
// workload's 16-byte keys without a heap allocation.
func slices(key []byte, buf []uint64) ([]uint64, int) {
	out := buf[:0]
	for i := 0; i < len(key); i += 8 {
		var b [8]byte
		copy(b[:], key[i:])
		out = append(out, binary.BigEndian.Uint64(b[:]))
	}
	if len(out) == 0 {
		return append(out, 0), 0
	}
	return out, len(key) - 8*(len(out)-1)
}

// Put inserts key with the given value, creating deeper layers as needed.
func (m *Masstree) Put(key []byte, val uint64, tr *Tracer) {
	var buf [2]uint64
	ss, n := slices(key, buf[:])
	layer := m.root
	for i, s := range ss {
		last := i == len(ss)-1
		if last {
			vals := layer.vals[n]
			if vals == nil {
				vals = make(map[uint64]uint64)
				layer.vals[n] = vals
			}
			if _, exists := vals[s]; !exists {
				m.size++
			}
			vals[s] = val
			layer.tree.Insert(s, tr)
			return
		}
		// Ensure the slice exists in this layer's tree and descend.
		if _, ok := layer.next[s]; !ok {
			layer.tree.Insert(s, tr)
			layer.next[s] = newMTLayer(m.arena)
		} else {
			layer.tree.Get(s, tr)
		}
		layer = layer.next[s]
	}
}

// Get looks key up, descending one B+-tree per 8-byte slice.
func (m *Masstree) Get(key []byte, tr *Tracer) (uint64, bool) {
	var buf [2]uint64
	ss, n := slices(key, buf[:])
	layer := m.root
	for i, s := range ss {
		last := i == len(ss)-1
		if !layer.tree.Get(s, tr) {
			return 0, false
		}
		if last {
			v, ok := layer.vals[n][s]
			return v, ok
		}
		nxt, ok := layer.next[s]
		if !ok {
			return 0, false
		}
		layer = nxt
	}
	return 0, false
}

// Update overwrites an existing key's value.
func (m *Masstree) Update(key []byte, val uint64, tr *Tracer) bool {
	var buf [2]uint64
	ss, n := slices(key, buf[:])
	layer := m.root
	for i, s := range ss {
		last := i == len(ss)-1
		if last {
			if _, ok := layer.vals[n][s]; !ok {
				return false
			}
			layer.vals[n][s] = val
			return layer.tree.Update(s, tr)
		}
		if !layer.tree.Get(s, tr) {
			return false
		}
		nxt, ok := layer.next[s]
		if !ok {
			return false
		}
		layer = nxt
	}
	return false
}

// MasstreeWorkload drives 16-byte-key traffic (two layers) with a
// read-mostly mix.
type MasstreeWorkload struct {
	cfg      Config
	trie     *Masstree
	arena    *mem.Arena
	keys     uint64
	prefixes uint64
	zipf     sampler
	rng      *sim.RNG
	jobTr    Tracer
}

// NewMasstreeWorkload builds the trie over the configured dataset. Keys
// are 16 bytes: the first 8 bytes take one of 1024 prefixes (so layer-2
// trees grow deep), the last 8 bytes are unique.
func NewMasstreeWorkload(cfg Config) *MasstreeWorkload {
	arena := mem.NewArena(0, cfg.DatasetBytes)
	// Measured footprint is ~56 B of tree per key plus one root page per
	// layer-2 tree; budget 96 B per key and ~4 K keys per prefix so the
	// layer-2 trees are deep.
	keys := cfg.DatasetBytes / 96
	if keys < 1024 {
		keys = 1024
	}
	prefixes := keys / 4096
	if prefixes < 16 {
		prefixes = 16
	}
	if prefixes > 1024 {
		prefixes = 1024
	}
	mt := NewMasstree(arena)
	for i := uint64(0); i < keys; i++ {
		k := mtKeyN(i, prefixes)
		mt.Put(k[:], i, nil)
	}
	rng := newRNG(cfg, 0x3a55)
	return &MasstreeWorkload{
		cfg:      cfg,
		trie:     mt,
		arena:    arena,
		keys:     keys,
		prefixes: prefixes,
		// Scrambled suffixes scatter hot keys across layer-2 leaves.
		zipf: newSampler(cfg, rng, keys, hotPageBudget(cfg)/3+1),
		rng:  rng,
	}
}

// mtKeyN builds the 16-byte key for index i: prefixes shared 8-byte
// prefixes, unique suffix. It returns the key by value, so the caller's
// copy can stay on its stack.
func mtKeyN(i, prefixes uint64) (k [16]byte) {
	binary.BigEndian.PutUint64(k[:8], scrambleKey(i)%prefixes)
	binary.BigEndian.PutUint64(k[8:], scrambleKey(i))
	return k
}

// Name implements Workload.
func (w *MasstreeWorkload) Name() string { return "masstree" }

// DatasetPages implements Workload.
func (w *MasstreeWorkload) DatasetPages() uint64 { return w.arena.Pages() }

// NewJobSteps performs OpsPerJob operations.
// The trace is written into buf.
func (w *MasstreeWorkload) NewJobSteps(buf []Step) []Step {
	w.jobTr.Reset(w.cfg.ComputePerAccessNs, buf)
	tr := &w.jobTr
	for op := 0; op < w.cfg.OpsPerJob; op++ {
		key := mtKeyN(w.zipf.Next(), w.prefixes)
		if w.rng.Float64() < w.cfg.WriteFraction {
			w.trie.Update(key[:], w.rng.Uint64(), tr)
		} else {
			w.trie.Get(key[:], tr)
		}
	}
	return tr.Take()
}
