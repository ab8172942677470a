package workload

import (
	"fmt"
	"sort"
	"testing"
)

// FuzzRBTree decodes ops into inserts (new keys and overwrites), updates
// and lookups over a small key space, alternating traced and untraced
// calls, and checks every found bit and value against a Go map. After
// each op the red-black properties must hold, the size must match the
// map, every child must point back at its parent, and an in-order walk
// must yield exactly the map's keys in ascending order.
func FuzzRBTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, spread byte, ops []byte) {
		tree := NewRBTree(testArena())
		sink := NewTracer(1)
		ref := map[uint64]uint64{}
		for n := 0; len(ops) >= 2 && n < 512; n++ {
			op, arg := ops[0], uint64(ops[1])
			ops = ops[2:]
			// spread scatters the byte keys over the key space: 0 keeps
			// them dense, larger shifts put them far apart.
			key := arg << (spread % 57)
			val := uint64(n)
			var tr *Tracer
			if op&0x80 != 0 {
				tr = sink
			}
			switch op % 3 {
			case 0:
				tree.Insert(key, val, tr)
				ref[key] = val
			case 1:
				_, had := ref[key]
				if tree.Update(key, val, tr) != had {
					t.Fatalf("Update(%d) reported %v, map has it: %v", key, !had, had)
				}
				if had {
					ref[key] = val
				}
			case 2:
				want, had := ref[key]
				if got, ok := tree.Lookup(key, tr); ok != had || got != want {
					t.Fatalf("Lookup(%d) = %d, %v, map has %d, %v", key, got, ok, want, had)
				}
			}
			sink.Take()
			if msg := tree.CheckInvariants(); msg != "" {
				t.Fatalf("op %d: %s", n, msg)
			}
			if tree.Size() != uint64(len(ref)) {
				t.Fatalf("op %d: size %d, map holds %d", n, tree.Size(), len(ref))
			}
			var walked []uint64
			if msg := rbWalk(tree.root, nil, &walked); msg != "" {
				t.Fatalf("op %d: %s", n, msg)
			}
			want := make([]uint64, 0, len(ref))
			for k := range ref {
				want = append(want, k)
			}
			sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
			if fmt.Sprint(walked) != fmt.Sprint(want) {
				t.Fatalf("op %d: in-order keys %v, want %v", n, walked, want)
			}
		}
	})
}

// rbWalk appends n's subtree keys in order to keys and reports the first
// node whose parent pointer is not parent.
func rbWalk(n, parent *rbNode, keys *[]uint64) string {
	if n == nil {
		return ""
	}
	if n.parent != parent {
		return "parent pointer mismatch"
	}
	if msg := rbWalk(n.left, n, keys); msg != "" {
		return msg
	}
	*keys = append(*keys, n.key)
	return rbWalk(n.right, n, keys)
}

// htFuzzSlots is FuzzHashTable's fixed capacity and htFuzzKeys its number
// of distinct keys: fewer than the slots, so a Put never finds the table
// full (TestHashTableFullPanics covers that).
const (
	htFuzzSlots = 64
	htFuzzKeys  = 56
)

// FuzzHashTable decodes ops into Puts (inserts and overwrites) and Gets of
// up to htFuzzKeys distinct keys, spread by a fuzzed stride so their
// hashes cluster or scatter, alternating traced and untraced calls. Every
// found bit and value must match a Go map; after each op the used count
// must equal both the map's size and the occupied slots, and a traced Get
// must touch only the table's slots.
func FuzzHashTable(f *testing.F) {
	f.Fuzz(func(t *testing.T, stride uint64, ops []byte) {
		ht := NewHashTable(testArena(), htFuzzSlots)
		if ht.Capacity() != htFuzzSlots {
			t.Fatalf("capacity %d, want %d", ht.Capacity(), htFuzzSlots)
		}
		sink := NewTracer(1)
		ref := map[uint64]uint64{}
		for n := 0; len(ops) >= 2 && n < 512; n++ {
			op, arg := ops[0], uint64(ops[1])
			ops = ops[2:]
			key := arg % htFuzzKeys * stride
			var tr *Tracer
			if op&0x80 != 0 {
				tr = sink
			}
			if op%2 == 0 {
				val := uint64(n)
				ht.Put(key, val, tr)
				ref[key] = val
			} else {
				want, had := ref[key]
				if got, ok := ht.Get(key, tr); ok != had || got != want {
					t.Fatalf("Get(%d) = %d, %v, map has %d, %v", key, got, ok, want, had)
				}
			}
			for _, s := range sink.Take() {
				if a := s.Access.Addr; a < ht.base || a >= ht.slotAddr(htFuzzSlots) {
					t.Fatalf("op %d traced address %#x outside the table", n, a)
				}
			}
			used := 0
			for _, s := range ht.slots {
				if s.used {
					used++
				}
			}
			if ht.Used() != uint64(len(ref)) || used != len(ref) {
				t.Fatalf("op %d: Used %d, %d slots occupied, map holds %d", n, ht.Used(), used, len(ref))
			}
		}
		for k, v := range ref {
			if got, ok := ht.Get(k, nil); !ok || got != v {
				t.Fatalf("lost key %d: Get = %d, %v, want %d", k, got, ok, v)
			}
		}
	})
}
