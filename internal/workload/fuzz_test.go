package workload

import (
	"encoding/binary"
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
			if ht.used != uint64(len(ref)) || used != len(ref) {
				t.Fatalf("op %d: Used %d, %d slots occupied, map holds %d", n, ht.used, used, len(ref))
			}
		}
		for k, v := range ref {
			if got, ok := ht.Get(k, nil); !ok || got != v {
				t.Fatalf("lost key %d: Get = %d, %v, want %d", k, got, ok, v)
			}
		}
	})
}

// mtFuzzKey builds a Masstree key from two bytes: a picks one of four
// 8-byte prefixes and a shape, b the rest. The shapes are the prefix
// alone (a key that ends where longer keys lead to a deeper layer), the
// prefix and one or two more 8-byte slices (two and three layers), the
// prefix and a short tail, and a key shorter than one slice (empty when
// b%16 is 0). The short tails start with zero bytes, and short keys with
// b&8 set are 1-8 zero bytes, so keys that differ only in trailing zeros
// meet.
func mtFuzzKey(a, b byte) []byte {
	prefix := []byte{'p', 'r', 'e', 'f', 'i', 'x', '_', 'A' + a%4}
	suffix := binary.BigEndian.AppendUint64(nil, uint64(b)<<8|uint64(a))
	switch a / 4 % 5 {
	case 0:
		return prefix
	case 1:
		return append(prefix, suffix...)
	case 2:
		return append(append(prefix, suffix...), suffix...)
	case 3:
		return append(prefix, suffix[:b%8]...)
	default:
		if b&8 != 0 {
			return make([]byte, b%8+1)
		}
		return prefix[:b%8]
	}
}

// mtFuzzLayer checks a Masstree layer and every deeper one: the layer's
// tree holds exactly the slices that end a key there or lead deeper, and
// passes CheckInvariants. It returns the number of keys ending in the
// subtrie.
func mtFuzzLayer(t *testing.T, l *mtLayer) uint64 {
	t.Helper()
	if msg := l.tree.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	want := map[uint64]bool{}
	var keys uint64
	for _, vals := range l.vals {
		for s := range vals {
			want[s] = true
		}
		keys += uint64(len(vals))
	}
	for s, next := range l.next {
		want[s] = true
		keys += mtFuzzLayer(t, next)
	}
	if l.tree.Size() != uint64(len(want)) {
		t.Fatalf("layer tree holds %d slices, %d end a key or lead deeper", l.tree.Size(), len(want))
	}
	for s := range want {
		if !l.tree.Get(s, nil) {
			t.Fatalf("slice %#x missing from its layer's tree", s)
		}
	}
	return keys
}

// FuzzMasstree decodes three-byte ops into Puts, Gets and Updates of keys
// that share 8-byte prefixes (mtFuzzKey), so layers form and a key can
// end at a slice that also leads deeper, alternating traced and untraced
// calls. Every found bit and value must match a Go map of the stored
// keys; after each op the size must match the map, and at the end every
// layer's tree must hold exactly its terminal and onward slices, the
// layers' terminal counts must add up to the size, and every key must
// read back.
func FuzzMasstree(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		mt := NewMasstree(testArena())
		sink := NewTracer(1)
		ref := map[string]uint64{}
		for n := 0; len(ops) >= 3 && n < 512; n++ {
			op, key := ops[0], mtFuzzKey(ops[1], ops[2])
			ops = ops[3:]
			var tr *Tracer
			if op&0x80 != 0 {
				tr = sink
			}
			val := uint64(n) + 1
			switch op % 3 {
			case 0:
				mt.Put(key, val, tr)
				ref[string(key)] = val
			case 1:
				want, had := ref[string(key)]
				if got, ok := mt.Get(key, tr); ok != had || got != want {
					t.Fatalf("op %d: Get(%q) = %d, %v, map has %d, %v", n, key, got, ok, want, had)
				}
			case 2:
				_, had := ref[string(key)]
				if mt.Update(key, val, tr) != had {
					t.Fatalf("op %d: Update(%q) reported %v, map has it: %v", n, key, !had, had)
				}
				if had {
					ref[string(key)] = val
				}
			}
			sink.Take()
			if mt.Size() != uint64(len(ref)) {
				t.Fatalf("op %d: size %d, map holds %d", n, mt.Size(), len(ref))
			}
		}
		if keys := mtFuzzLayer(t, mt.root); keys != mt.Size() {
			t.Fatalf("layers hold %d terminal keys, size %d", keys, mt.Size())
		}
		for k, v := range ref {
			if got, ok := mt.Get([]byte(k), nil); !ok || got != v {
				t.Fatalf("lost key %q: Get = %d, %v, want %d", k, got, ok, v)
			}
		}
	})
}

// siloFuzzKeys is FuzzSilo's key space: small, so transactions collide.
const siloFuzzKeys = 16

// siloRef is FuzzSilo's reference for one transaction: the version each
// key had when first read, and the buffered writes.
type siloRef struct {
	txn    *Txn
	reads  map[uint64]uint64
	writes map[uint64]uint64
}

// FuzzSilo decodes two-byte ops into Loads of new keys and, on two
// interleaved transactions, Reads, Writes and Commits, traced or not, and
// checks them against a map of committed values and versions. A Read
// returns the transaction's own write or else the committed value; a
// Commit succeeds exactly when every written key is loaded and every key
// read still has the version first read (serializability), and then
// installs the writes. After each op the commit and abort counts must
// match, and at the end every committed value must read back.
func FuzzSilo(f *testing.F) {
	f.Fuzz(func(t *testing.T, ops []byte) {
		db := NewSiloDB(testArena())
		sink := NewTracer(1)
		type rec struct{ value, version uint64 }
		committed := map[uint64]rec{}
		var txns [2]*siloRef
		var commits, aborts uint64
		for n := 0; len(ops) >= 2 && n < 512; n++ {
			op, key := ops[0], uint64(ops[1])%siloFuzzKeys
			ops = ops[2:]
			var tr *Tracer
			if op&0x80 != 0 {
				tr = sink
			}
			if op%4 == 0 {
				if _, ok := committed[key]; !ok {
					db.Load(key, uint64(n), tr)
					committed[key] = rec{uint64(n), 1}
				}
				sink.Take()
				continue
			}
			slot := &txns[op>>2&1]
			if *slot == nil {
				*slot = &siloRef{txn: db.Begin(tr), reads: map[uint64]uint64{}, writes: map[uint64]uint64{}}
			}
			x := *slot
			switch op % 4 {
			case 1:
				got, ok := x.txn.Read(key)
				want, had := x.writes[key]
				if r, loaded := committed[key]; !had && loaded {
					want, had = r.value, true
					if _, seen := x.reads[key]; !seen {
						x.reads[key] = r.version
					}
				}
				if ok != had || got != want {
					t.Fatalf("op %d: Read(%d) = %d, %v, want %d, %v", n, key, got, ok, want, had)
				}
			case 2:
				x.txn.Write(key, uint64(n))
				x.writes[key] = uint64(n)
			case 3:
				ok := true
				for k := range x.writes {
					if _, loaded := committed[k]; !loaded {
						ok = false
					}
				}
				for k, v := range x.reads {
					if committed[k].version != v {
						ok = false
					}
				}
				if got := x.txn.Commit(); got != ok {
					t.Fatalf("op %d: Commit = %v, want %v (reads %v, writes %v)", n, got, ok, x.reads, x.writes)
				}
				if ok {
					for k, v := range x.writes {
						committed[k] = rec{v, committed[k].version + 1}
					}
					commits++
				} else {
					aborts++
				}
				*slot = nil
			}
			sink.Take()
			if db.Commits != commits || db.Aborts != aborts {
				t.Fatalf("op %d: commits/aborts %d/%d, want %d/%d", n, db.Commits, db.Aborts, commits, aborts)
			}
		}
		if db.Size() != len(committed) {
			t.Fatalf("size %d, %d keys loaded", db.Size(), len(committed))
		}
		if msg := db.index.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		check := db.Begin(nil)
		for k, r := range committed {
			if got, ok := check.Read(k); !ok || got != r.value {
				t.Fatalf("key %d reads %d, %v, committed %d", k, got, ok, r.value)
			}
		}
	})
}
