package workload

import (
	"fmt"
	"math"
	"math/rand/v2"
	"reflect"
	stdslices "slices"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func testArena() *mem.Arena { return mem.NewArena(0, 64<<20) }

func TestRBTreeInsertLookup(t *testing.T) {
	tree := NewRBTree(testArena())
	tr := NewTracer(1)
	for i := uint64(0); i < 1000; i++ {
		tree.Insert(i*7%1000, i, tr)
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	v, ok := tree.Lookup(7, tr)
	if !ok || v != 1 {
		t.Fatalf("lookup(7) = %d,%v", v, ok)
	}
	if _, ok := tree.Lookup(5000, tr); ok {
		t.Fatal("found absent key")
	}
}

func TestRBTreeUpdate(t *testing.T) {
	tree := NewRBTree(testArena())
	tr := NewTracer(1)
	tree.Insert(10, 1, tr)
	if !tree.Update(10, 2, tr) {
		t.Fatal("update missed existing key")
	}
	if v, _ := tree.Lookup(10, tr); v != 2 {
		t.Fatalf("value = %d after update", v)
	}
	if tree.Update(11, 1, tr) {
		t.Fatal("update hit absent key")
	}
}

func TestRBTreeTracesPointerChase(t *testing.T) {
	tree := NewRBTree(testArena())
	sink := NewTracer(1)
	for i := uint64(0); i < 10000; i++ {
		tree.Insert(scrambleKey(i), i, sink)
	}
	tr := NewTracer(1)
	tree.Lookup(scrambleKey(77), tr)
	steps := tr.Take()
	// A 10000-key balanced tree is ~14 levels; the traversal must emit
	// several dependent accesses, not one.
	if len(steps) < 5 || len(steps) > 40 {
		t.Fatalf("lookup traced %d accesses, want a pointer chase", len(steps))
	}
}

func TestRBTreePropertyInvariants(t *testing.T) {
	if err := quick.Check(func(keys []uint16) bool {
		tree := NewRBTree(testArena())
		tr := NewTracer(1)
		seen := map[uint64]uint64{}
		for i, k := range keys {
			tree.Insert(uint64(k), uint64(i), tr)
			seen[uint64(k)] = uint64(i)
		}
		if tree.CheckInvariants() != "" {
			return false
		}
		if tree.Size() != uint64(len(seen)) {
			return false
		}
		for k, v := range seen {
			got, ok := tree.Lookup(k, tr)
			if !ok || got != v {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestHashTableBasics(t *testing.T) {
	ht := NewHashTable(testArena(), 1024)
	tr := NewTracer(1)
	if _, ok := ht.Get(5, tr); ok {
		t.Fatal("hit on empty table")
	}
	ht.Put(5, 50, tr)
	ht.Put(5, 51, tr) // overwrite
	v, ok := ht.Get(5, tr)
	if !ok || v != 51 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	if ht.used != 1 {
		t.Fatalf("used = %d", ht.used)
	}
}

func TestHashTableProbeChains(t *testing.T) {
	ht := NewHashTable(testArena(), 256)
	tr := NewTracer(1)
	for i := uint64(0); i < 180; i++ { // ~70% load
		ht.Put(i, i, tr)
	}
	if lf := float64(ht.used) / float64(ht.Capacity()); lf < 0.6 || lf > 0.8 {
		t.Fatalf("load factor = %v", lf)
	}
	for i := uint64(0); i < 180; i++ {
		if v, ok := ht.Get(i, tr); !ok || v != i {
			t.Fatalf("lost key %d", i)
		}
	}
}

func TestHashTableFullPanics(t *testing.T) {
	ht := NewHashTable(testArena(), 4)
	tr := NewTracer(1)
	defer func() {
		if recover() == nil {
			t.Fatal("full table did not panic")
		}
	}()
	for i := uint64(0); i < 10; i++ {
		ht.Put(i, i, tr)
	}
}

func TestBPTreeInsertGetScan(t *testing.T) {
	tree := NewBPTree(testArena(), 8) // small fanout forces splits
	tr := NewTracer(1)
	const n = 1000
	for i := uint64(0); i < n; i++ {
		tree.Insert(i*3%n, tr)
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	if tree.Height() < 3 {
		t.Fatalf("height = %d; splits did not cascade", tree.Height())
	}
	for i := uint64(0); i < n; i += 17 {
		if !tree.Get(i*3%n, tr) {
			t.Fatalf("lost key %d", i*3%n)
		}
	}
	if got := fmt.Sprint(tree.Scan(0, 10, tr)); got != "[0 1 2 3 4 5 6 7 8 9]" {
		t.Fatalf("scan returned %s", got)
	}
}

// lastWrite reports whether tr's last traced access is a write.
func lastWrite(tr *Tracer) bool {
	steps := tr.Take()
	return len(steps) > 0 && steps[len(steps)-1].Access.Write
}

func TestBPTreeUpdate(t *testing.T) {
	tree := NewBPTree(testArena(), 16)
	tr := NewTracer(1)
	tree.Insert(42, tr)
	tr.Take()
	if !tree.Update(42, tr) {
		t.Fatal("update missed key")
	}
	if !lastWrite(tr) {
		t.Fatal("update of a present key traced no leaf write")
	}
	if tree.Update(43, tr) {
		t.Fatal("update hit absent key")
	}
	if lastWrite(tr) {
		t.Fatal("update of an absent key traced a write")
	}
}

func TestBPTreeDuplicateInsertOverwrites(t *testing.T) {
	tree := NewBPTree(testArena(), 8)
	tr := NewTracer(1)
	tree.Insert(5, tr)
	tr.Take()
	tree.Insert(5, tr)
	if !lastWrite(tr) {
		t.Fatal("duplicate insert traced no leaf write")
	}
	if tree.Size() != 1 {
		t.Fatalf("size = %d after duplicate insert", tree.Size())
	}
	if !tree.Get(5, tr) {
		t.Fatal("lost key 5")
	}
}

func TestBPTreePropertyOrderAndPresence(t *testing.T) {
	if err := quick.Check(func(keys []uint16) bool {
		tree := NewBPTree(testArena(), 8)
		tr := NewTracer(1)
		seen := map[uint64]bool{}
		for _, k := range keys {
			tree.Insert(uint64(k), tr)
			seen[uint64(k)] = true
		}
		if tree.CheckInvariants() != "" {
			return false
		}
		for k := range seen {
			if !tree.Get(k, tr) {
				return false
			}
		}
		for ni := range tree.nodes {
			if storageError(tree, ni) != "" {
				return false
			}
		}
		return tree.Size() == uint64(len(seen))
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// storageError reports how node ni breaks the storage rule, or "". A
// strided node follows checkStrided. A wide internal left half frozen by
// a split and not inserted into since is strided when its separators and
// children fit the form (sepStride), and holds exact-size arrays when
// they do not. Any other wide internal node holds arrays of the split
// size: fanout+1 keys and room for at most fanout+2 children (a frozen
// half's children array may round up to its size class). Leaves follow
// leafStorageError.
func storageError(t *BPTree, ni int32) string {
	n := t.node(ni)
	if n.leaf {
		return leafStorageError(t, ni)
	}
	if n.count != 0 {
		return t.checkStrided(n)
	}
	w := t.wide[n.base]
	switch {
	case cap(w.keys) == t.fanout+1 && cap(w.children) <= t.fanout+2:
		return ""
	case cap(w.keys) != len(w.keys) || cap(w.children) > t.fanout+2:
		return fmt.Sprintf("internal node keys len %d, cap %d, children cap %d; want exact or %d keys, at most %d children",
			len(w.keys), cap(w.keys), cap(w.children), t.fanout+1, t.fanout+2)
	}
	if g, ok := sepStride(w.keys, w.children); ok {
		return fmt.Sprintf("exact-size internal node has gap %#x and consecutive children, which stride", g)
	}
	return ""
}

// leafStorageError reports how leaf n breaks the storage rule, or "". A
// strided leaf follows checkStrided. A wide left half frozen by a split
// and not inserted into since is strided when its gaps fit the form
// (strides), and an exact-size wide copy when they do not. Every other
// wide leaf holds an array of the split size fanout+1, but the empty
// tree's root, which holds none.
func leafStorageError(t *BPTree, ni int32) string {
	n := t.node(ni)
	if n.count != 0 {
		return t.checkStrided(n)
	}
	keys := t.wide[n.base].keys
	switch {
	case cap(keys) == t.fanout+1:
		return ""
	case cap(keys) != len(keys):
		return fmt.Sprintf("leaf keys len %d, cap %d; want exact or %d", len(keys), cap(keys), t.fanout+1)
	}
	if d0, d1, ok := strides(keys); ok {
		return fmt.Sprintf("exact-size leaf has gaps %#x/%#x, which stride", d0, d1)
	}
	return ""
}

// bpLeaves returns the slab indices of the tree's leaves in key order. A
// node reached twice, down the leftmost path or along the leaf chain,
// fails the test by name instead of looping.
func bpLeaves(tb testing.TB, t *BPTree) []int32 {
	tb.Helper()
	reached := make(map[int32]bool)
	reach := func(ni int32, how string) {
		if reached[ni] {
			tb.Fatalf("bpLeaves: node %d reached twice (%s)", ni, how)
		}
		reached[ni] = true
	}
	ni := t.root
	for !t.node(ni).leaf {
		reach(ni, "leftmost descent")
		ni = t.child(t.node(ni), 0)
	}
	var out []int32
	for ; ni != noNode; ni = t.node(ni).next {
		reach(ni, "leaf chain")
		out = append(out, ni)
	}
	return out
}

// wideKeys returns a wide node's key array.
func wideKeys(t *BPTree, ni int32) []uint64 { return t.wide[t.node(ni).base].keys }

// TestBPTreeAscendingLoadTrimsLeaves loads the same keys untraced (the
// tail append) and through a sink (the searched descent), and requires
// identical leaves from both: every leaf strided at gap 1 with no key
// array, 128 keys in each but the tail, which holds the rest, no
// side-table slot but the wide internal nodes', and some internal nodes
// strided.
func TestBPTreeAscendingLoadTrimsLeaves(t *testing.T) {
	load := func(tr *Tracer) *BPTree {
		tree := NewBPTree(testArena(), 256)
		for i := uint64(0); i < 100_000; i++ {
			tree.Insert(i, tr)
			if tr != nil {
				tr.Take()
			}
		}
		return tree
	}
	tree, twin := load(nil), load(NewTracer(1))
	leaves, traced := bpLeaves(t, tree), bpLeaves(t, twin)
	if len(leaves) < 100 {
		t.Fatalf("%d leaves; the load did not split", len(leaves))
	}
	if len(leaves) != len(traced) {
		t.Fatalf("untraced load built %d leaves, traced %d", len(leaves), len(traced))
	}
	for i, ni := range leaves {
		n, m := *tree.node(ni), *twin.node(traced[i])
		if n != m || (n.count == 0 && cap(wideKeys(tree, ni)) != cap(wideKeys(twin, traced[i]))) ||
			(n.count == 0 && fmt.Sprint(wideKeys(tree, ni)) != fmt.Sprint(wideKeys(twin, traced[i]))) {
			t.Fatalf("leaf %d: untraced %+v, traced %+v", i, n, m)
		}
		want := uint16(128)
		if i == len(leaves)-1 {
			want = uint16(100_000 - i*128)
		}
		if n.count != want || n.d0 != 1 || n.d1 != 1 || n.base != uint64(i*128) {
			t.Fatalf("leaf %d: base %d, count %d, gaps %d/%d; want strided at %d, %d keys at gap 1",
				i, n.base, n.count, n.d0, n.d1, i*128, want)
		}
	}
	var internal, wide int
	for ni := range tree.nodes {
		if n := tree.node(ni); !n.leaf {
			internal++
			if n.count == 0 {
				wide++
			}
		}
	}
	if len(tree.wide) != wide || wide == internal {
		t.Fatalf("%d side-table slots for %d wide of %d internal nodes", len(tree.wide), wide, internal)
	}
}

// TestBPTreeStridingFollowsGaps loads ascending keys whose gaps repeat a
// pattern and checks which form the frozen left halves take: a constant
// gap or two alternating gaps of at most 0xffff stride, and a gap of
// 0x10000 in either phase or a pattern of period 3 stays wide.
func TestBPTreeStridingFollowsGaps(t *testing.T) {
	for _, c := range []struct {
		gaps    []uint64
		strided bool
	}{
		{[]uint64{0xffff}, true},
		{[]uint64{0x10000}, false},
		{[]uint64{1, 0xffff}, true},
		{[]uint64{0xffff, 0x10000}, false},
		{[]uint64{0x10000, 0xffff}, false},
		{[]uint64{1, 2, 3}, false},
	} {
		tree := NewBPTree(testArena(), 256)
		keys := map[uint64]bool{}
		k := uint64(1)
		for i := range 10_000 {
			tree.Insert(k, nil)
			keys[k] = true
			k += c.gaps[i%len(c.gaps)]
		}
		leaves := bpLeaves(t, tree)
		for i, ni := range leaves[:len(leaves)-1] {
			if strided := tree.node(ni).count != 0; strided != c.strided {
				t.Fatalf("gaps %#x, leaf %d: strided %v, want %v", c.gaps, i, strided, c.strided)
			}
			if msg := leafStorageError(tree, ni); msg != "" {
				t.Fatalf("gaps %#x, leaf %d: %s", c.gaps, i, msg)
			}
		}
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatalf("gaps %#x: %s", c.gaps, msg)
		}
		for k := range keys {
			for _, p := range []uint64{k - 1, k, k + 1} {
				if tree.Get(p, nil) != keys[p] {
					t.Fatalf("gaps %#x: Get(%d) = %v, want %v", c.gaps, p, !keys[p], keys[p])
				}
			}
		}
	}
}

// TestBPTreeStridedLeafEdges probes a strided leaf at the edges of its
// keys. The leaf holds 128 keys from base at alternating gaps 1 and 3 and
// is followed by a leaf starting 1<<18 higher, so every probe descends to
// it: base-1 sorts before it, base+2 and base+3 fall past the odd key in
// a period, last+1 is past its last key and base+0x10000 far past it.
// Each probe misses, and inserting it unpacks the leaf and keeps every key
// findable. Re-inserting a present key only traces the write and leaves
// the leaf strided.
func TestBPTreeStridedLeafEdges(t *testing.T) {
	const base = 1 << 20
	var keys []uint64
	for i := range uint64(128) {
		keys = append(keys, base+4*(i/2)+i%2)
	}
	last := keys[len(keys)-1]
	for i := range uint64(129) {
		keys = append(keys, base+1<<18+i)
	}
	for _, probe := range []uint64{base - 1, base + 2, base + 3, last + 1, base + 0x10000} {
		tree := NewBPTree(testArena(), 256)
		for _, k := range keys {
			tree.Insert(k, nil)
		}
		first := bpLeaves(t, tree)[0]
		n := tree.node(first)
		if n.count != 128 || n.base != base || n.d0 != 1 || n.d1 != 3 {
			t.Fatalf("first leaf: count %d base %d gaps %d/%d; want 128 keys at %d, gaps 1/3",
				n.count, n.base, n.d0, n.d1, base)
		}
		tr := NewTracer(1)
		if tree.Insert(base+5, tr); !lastWrite(tr) || tree.node(first).count == 0 || tree.Size() != uint64(len(keys)) {
			t.Fatal("re-inserting a present key unpacked the leaf or traced no write")
		}
		if tree.Get(probe, nil) {
			t.Fatalf("Get(base%+d) found an absent key", int64(probe-base))
		}
		if tree.Update(probe, tr) || lastWrite(tr) {
			t.Fatalf("Update(base%+d) rewrote an absent key", int64(probe-base))
		}
		tree.Insert(probe, tr)
		if tree.node(first).count != 0 {
			t.Fatalf("inserting base%+d left the leaf strided", int64(probe-base))
		}
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		for _, k := range append(keys, probe) {
			if !tree.Get(k, nil) {
				t.Fatalf("after inserting base%+d: lost key %d", int64(probe-base), k)
			}
		}
		if tree.Size() != uint64(len(keys)+1) {
			t.Fatalf("size %d, want %d", tree.Size(), len(keys)+1)
		}
	}
}

// TestBPTreeStridedLeafTakesNextStrideKey inserts, traced, the next
// stride key of a strided leaf that is not the tail: last+3, since the
// leaf's 128th gap is its odd one. The leaf takes it at its end and stays
// strided, with one more key and the same gaps, and every key, the new
// one too, stays findable.
func TestBPTreeStridedLeafTakesNextStrideKey(t *testing.T) {
	const base = 1 << 20
	tree := NewBPTree(testArena(), 256)
	var keys []uint64
	for i := range uint64(128) {
		keys = append(keys, base+4*(i/2)+i%2)
	}
	next := keys[len(keys)-1] + 3
	for i := range uint64(129) {
		keys = append(keys, base+1<<18+i)
	}
	for _, k := range keys {
		tree.Insert(k, nil)
	}
	tr := NewTracer(1)
	tree.Insert(next, tr)
	first := tree.node(bpLeaves(t, tree)[0])
	if !lastWrite(tr) || first.count != 129 || first.d0 != 1 || first.d1 != 3 {
		t.Fatalf("first leaf after inserting its next stride key: %+v", *first)
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	for _, k := range append(keys, next) {
		if !tree.Get(k, nil) {
			t.Fatalf("lost key %d", k)
		}
	}
	if tree.Get(next-1, nil) || tree.Size() != uint64(len(keys)+1) {
		t.Fatalf("size %d, want %d, or key %d found", tree.Size(), len(keys)+1, next-1)
	}
}

// TestBPTreeFirstLeafForms follows the first leaf from the empty tree's
// root, a wide leaf without keys at slot 0, through one key (strided, the
// slot freed), two (d0 fixed) and three (d1 fixed, unlike d0), to a key
// that breaks its stride, which unpacks it into slot 0 at the split size.
// Get, Update and Scan answer over each form, and a second key farther
// than maxStrideGap unpacks the one-key leaf.
func TestBPTreeFirstLeafForms(t *testing.T) {
	tree := NewBPTree(testArena(), 8)
	root := tree.node(tree.root)
	check := func(stage string, count, d0, d1 uint16, keys ...uint64) {
		t.Helper()
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatalf("%s: %s", stage, msg)
		}
		if root.count != count || count != 0 && (root.d0 != d0 || root.d1 != d1) {
			t.Fatalf("%s: root %+v, want count %d, gaps %d/%d", stage, *root, count, d0, d1)
		}
		if got := tree.Scan(0, 10, nil); !stdslices.Equal(got, keys) {
			t.Fatalf("%s: Scan = %v, want %v", stage, got, keys)
		}
		for _, k := range keys {
			if !tree.Get(k, nil) || !tree.Update(k, nil) || tree.Get(k+1, nil) {
				t.Fatalf("%s: key %d or its successor answered wrong", stage, k)
			}
		}
	}
	if root.count != 0 || len(tree.wide) != 1 || tree.wide[0].keys != nil || tree.Get(5, nil) || tree.Update(5, nil) {
		t.Fatalf("empty tree: root %+v, %d slots", *root, len(tree.wide))
	}
	check("empty", 0, 0, 0)
	tree.Insert(5, nil)
	if len(tree.wide) != 0 {
		t.Fatalf("one key: %d slots, want the root's freed", len(tree.wide))
	}
	check("one key", 1, 1, 1, 5)
	tree.Insert(7, NewTracer(1))
	check("two keys", 2, 2, 2, 5, 7)
	tree.Insert(12, nil)
	check("three keys", 3, 2, 5, 5, 7, 12)
	tree.Insert(15, nil) // the next stride key is 14
	if root.count != 0 || root.base != 0 || cap(tree.wide[0].keys) != 9 {
		t.Fatalf("broken stride: root %+v, want wide at slot 0, cap 9", *root)
	}
	check("wide", 0, 0, 0, 5, 7, 12, 15)

	far := NewBPTree(testArena(), 8)
	far.Insert(1, nil)
	far.Insert(2+maxStrideGap, NewTracer(1))
	if n := far.node(far.root); n.count != 0 || len(far.wide) != 1 || far.Size() != 2 {
		t.Fatalf("a second key past maxStrideGap: root %+v, %d slots", *n, len(far.wide))
	}
}

// TestBPTreeStridedSplitAtOddMid splits full strided leaves at fanout 6,
// where mid is 3: the left half keeps base and gaps with 3 keys, and the
// right half starts at key 3, its gaps swapped. It checks this on a leaf
// at gaps 1/3 directly, then loads keys at those gaps untraced and
// traced, and requires every leaf strided, equal slabs, and every key
// found.
func TestBPTreeStridedSplitAtOddMid(t *testing.T) {
	tree := NewBPTree(testArena(), 6)
	var keys []uint64
	for i := range uint64(7) {
		keys = append(keys, 100+4*(i/2)+i%2)
		tree.Insert(keys[i], nil)
	}
	leaves := bpLeaves(t, tree)
	if len(leaves) != 2 {
		t.Fatalf("%d leaves after 7 keys at fanout 6, want 2", len(leaves))
	}
	l, r := tree.node(leaves[0]), tree.node(leaves[1])
	if l.base != 100 || l.count != 3 || l.d0 != 1 || l.d1 != 3 ||
		r.base != keys[3] || r.count != 4 || r.d0 != 3 || r.d1 != 1 {
		t.Fatalf("split at mid 3: left %+v, right %+v", *l, *r)
	}

	load := func(tr *Tracer) *BPTree {
		tree := NewBPTree(testArena(), 6)
		for i := range uint64(500) {
			tree.Insert(4*(i/2)+i%2, tr)
		}
		return tree
	}
	tree, twin := load(nil), load(NewTracer(1))
	if msg := bpSlabDiff(tree, twin); msg != "" {
		t.Fatal(msg)
	}
	if msg := tree.CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
	for _, ni := range bpLeaves(t, tree) {
		if tree.node(ni).count == 0 {
			t.Fatalf("leaf %d wide", ni)
		}
	}
	for i := range uint64(500) {
		if k := 4*(i/2) + i%2; !tree.Get(k, nil) || tree.Get(k+2, nil) {
			t.Fatalf("key %d or %d answered wrong", k, k+2)
		}
	}
}

// TestBPTreeStridedSearchMatchesLowerBound checks the strided leaf's O(1)
// search against lowerBound over its expanded keys, position and found
// bit, at every key, each key ±1, base-1, last+1, 0 and 2^64-1, for
// periods 1 and 2, gaps of 1 and 0xffff, counts 2 and 3, and a leaf whose
// last key is 2^64-1. strides must recover each leaf's gaps from its keys
// and refuse a gap of 0x10000 and a pattern of period 3.
func TestBPTreeStridedSearchMatchesLowerBound(t *testing.T) {
	for _, c := range []struct {
		base          uint64
		count, d0, d1 uint16
	}{
		{0, 2, 1, 1},
		{5, 2, 0xffff, 0xffff},
		{1 << 40, 3, 7, 7},
		{100, 128, 1, 1},
		{100, 128, 0xffff, 0xffff},
		{100, 128, 1, 0xffff},
		{100, 127, 0xffff, 1},
		{100, 129, 3, 5},
		{^uint64(0) - (64*(0xffff+1) + 0xffff), 130, 0xffff, 1},
		{^uint64(0) - 2*0xffff, 3, 0xffff, 0xffff},
	} {
		n := &bpNode{leaf: true, base: c.base, count: c.count, d0: c.d0, d1: c.d1}
		tree := &BPTree{}
		name := fmt.Sprintf("base %#x count %d gaps %#x/%#x", c.base, c.count, c.d0, c.d1)
		if msg := tree.checkStrided(n); msg != "" {
			t.Fatalf("%s: %s", name, msg)
		}
		keys := make([]uint64, c.count)
		for i := range keys {
			keys[i] = tree.keyAt(n, i)
		}
		if d0, d1, ok := strides(keys); !ok || d0 != c.d0 || d1 != c.d1 {
			t.Fatalf("%s: strides = %#x/%#x %v", name, d0, d1, ok)
		}
		probes := []uint64{0, ^uint64(0), c.base - 1, keys[len(keys)-1] + 1}
		for _, k := range keys {
			probes = append(probes, k-1, k, k+1)
		}
		for _, p := range probes {
			i, found := tree.search(n, p)
			wi := lowerBound(keys, p)
			if wfound := wi < len(keys) && keys[wi] == p; i != wi || found != wfound {
				t.Fatalf("%s: search(%#x) = %d %v, lowerBound gives %d %v", name, p, i, found, wi, wfound)
			}
		}
	}
	for _, keys := range [][]uint64{{0, 0x10000}, {0, 1, 0x10001}, {0, 0x10000, 0x10001}, {0, 1, 3, 6, 7, 9}} {
		if _, _, ok := strides(keys); ok {
			t.Fatalf("strides(%#x) accepted", keys)
		}
	}
}

// TestBPTreeCheckInvariantsRejectsMalformedStrided corrupts a strided
// leaf and a strided internal node in each way CheckInvariants must
// catch, and requires that message rather than a panic.
func TestBPTreeCheckInvariantsRejectsMalformedStrided(t *testing.T) {
	for _, c := range []struct {
		name    string
		corrupt func(tree *BPTree, leaf, internal *bpNode)
		want    string
	}{
		{"count below 2", func(_ *BPTree, n, _ *bpNode) { n.count = 1 }, "fewer than 2 keys"},
		{"zero even gap", func(_ *BPTree, n, _ *bpNode) { n.d0 = 0 }, "zero gap"},
		{"zero gaps", func(_ *BPTree, n, _ *bpNode) { n.d0, n.d1 = 0, 0 }, "zero gap"},
		{"last key past 2^64", func(_ *BPTree, n, _ *bpNode) { n.base = ^uint64(0) - 6 }, "past 2^64"},
		{"internal gap 0", func(_ *BPTree, _, n *bpNode) { n.d0, n.d1 = 0, 0 }, "zero gap"},
		{"internal count below 2", func(_ *BPTree, _, n *bpNode) { n.count = 1 }, "fewer than 2 keys"},
		{"internal count above fanout", func(tree *BPTree, _, n *bpNode) { n.count = uint16(tree.fanout + 1) }, "over fanout"},
		{"internal last key past 2^64", func(_ *BPTree, _, n *bpNode) { n.base = ^uint64(0) - n.gap() }, "past 2^64"},
		{"internal children past the slab", func(tree *BPTree, _, n *bpNode) { n.next = tree.nodes - int32(n.count) }, "outside the slab"},
		{"internal first child negative", func(_ *BPTree, _, n *bpNode) { n.next = -1 }, "outside the slab"},
	} {
		tree := NewBPTree(testArena(), 16)
		for k := range uint64(2000) {
			tree.Insert(k, nil)
		}
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatalf("%s: before corrupting: %s", c.name, msg)
		}
		leaf := tree.node(bpLeaves(t, tree)[0])
		if leaf.count != 8 {
			t.Fatalf("%s: first leaf count %d, want strided with 8", c.name, leaf.count)
		}
		var internal *bpNode
		for ni := range tree.nodes {
			if n := tree.node(ni); !n.leaf && n.count != 0 && ni != tree.root {
				internal = n
				break
			}
		}
		if internal == nil || internal.count != 8 || internal.gap() != 8 {
			t.Fatalf("%s: first strided internal node %+v, want 8 separators at gap 8", c.name, internal)
		}
		c.corrupt(tree, leaf, internal)
		if msg := tree.CheckInvariants(); !strings.Contains(msg, c.want) {
			t.Errorf("%s: CheckInvariants = %q, want %q", c.name, msg, c.want)
		}
	}
}

// TestBPNodeLayout pins the node slab's layout: a node of at most 24
// bytes with no pointer anywhere in it, so slab chunks are memory the
// garbage collector never scans. The walk must find the side table's
// slices, or it proves nothing.
func TestBPNodeLayout(t *testing.T) {
	if size := unsafe.Sizeof(bpNode{}); size > 24 {
		t.Errorf("bpNode is %d bytes, want <= 24", size)
	}
	if path := pointerField(reflect.TypeOf(bpNode{}), "bpNode"); path != "" {
		t.Errorf("%s holds a pointer", path)
	}
	if path := pointerField(reflect.TypeOf(bpArrays{}), "bpArrays"); path != "bpArrays.keys" {
		t.Errorf("pointer walk over bpArrays found %q, want bpArrays.keys", path)
	}
}

// pointerField returns the path to the first field of typ that is or
// holds a pointer, or "".
func pointerField(typ reflect.Type, path string) string {
	switch typ.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Slice, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.String:
		return path
	case reflect.Array:
		return pointerField(typ.Elem(), path+"[]")
	case reflect.Struct:
		for i := range typ.NumField() {
			f := typ.Field(i)
			if p := pointerField(f.Type, path+"."+f.Name); p != "" {
				return p
			}
		}
	}
	return ""
}

// TestDatasetBoundFitsNodeLayout checks that every arena page of the
// largest dataset New accepts (TPC-C's arena spans twice it) numbers
// below 2^31, so it fits a node's 32-bit page and its int32 slab index,
// and that one page more is an error from every workload before any
// build: a build at that size would run for hours, not return.
func TestDatasetBoundFitsNodeLayout(t *testing.T) {
	if pages := mem.PagesForBytes(2 * MaxDatasetBytes); pages > math.MaxInt32+1 {
		t.Fatalf("a %d-byte TPC-C arena spans %d pages, past 2^31", uint64(MaxDatasetBytes), pages)
	}
	for _, name := range Names() {
		cfg := DefaultConfig()
		cfg.DatasetBytes = MaxDatasetBytes + mem.PageSize
		if _, err := New(name, cfg); err == nil || !strings.Contains(err.Error(), "32-bit") {
			t.Errorf("%s: New at %d bytes returned %v, want the node layout's bound", name, cfg.DatasetBytes, err)
		}
	}
}

// TestBPTreeCheckInvariantsRejectsMalformedLayout corrupts the node slab,
// the side table and the links between nodes in each way CheckInvariants
// must catch, and requires that message rather than a panic.
func TestBPTreeCheckInvariantsRejectsMalformedLayout(t *testing.T) {
	children := func(tree *BPTree) []int32 { return tree.wide[tree.node(tree.root).base].children }
	for _, c := range []struct {
		name    string
		corrupt func(tree *BPTree, leaves []int32)
		want    string
	}{
		{"child past the slab", func(tree *BPTree, _ []int32) { children(tree)[1] = tree.nodes }, "out of range"},
		{"negative child", func(tree *BPTree, _ []int32) { children(tree)[1] = -5 }, "out of range"},
		{"child reached twice", func(tree *BPTree, _ []int32) { children(tree)[1] = children(tree)[0] }, "reached twice"},
		{"one child too few", func(tree *BPTree, _ []int32) {
			tree.wide[tree.node(tree.root).base].children = children(tree)[:len(children(tree))-1]
		}, "children for"},
		{"slot past the side table", func(tree *BPTree, _ []int32) { tree.node(tree.root).base = uint64(len(tree.wide)) }, "out of range"},
		{"slot shared", func(tree *BPTree, _ []int32) {
			tail := tree.node(tree.tail)
			tree.room(tail)
			tail.base = tree.node(tree.root).base
		}, "owned twice"},
		{"slot owned by none", func(tree *BPTree, _ []int32) { tree.newSlot(nil, nil) }, "owned by no node"},
		{"leaf with children", func(tree *BPTree, _ []int32) { tree.room(tree.node(tree.tail)).children = []int32{0} }, "holds children"},
		{"internal node with a next", func(tree *BPTree, leaves []int32) { tree.node(tree.root).next = leaves[0] }, "has a next leaf"},
		{"next past the slab", func(tree *BPTree, leaves []int32) { tree.node(leaves[0]).next = 1000 }, "out of range"},
		{"chain skips a leaf", func(tree *BPTree, leaves []int32) { tree.node(leaves[0]).next = leaves[2] }, "leaf chain reaches"},
		{"chain loops back", func(tree *BPTree, leaves []int32) { tree.node(leaves[1]).next = leaves[0] }, "leaf chain reaches"},
		{"chain runs past the tail", func(tree *BPTree, leaves []int32) { tree.node(tree.tail).next = leaves[0] }, "runs past the last leaf"},
		{"tail not the last leaf", func(tree *BPTree, leaves []int32) { tree.tail = leaves[0] }, "tail is node"},
		{"leaf below the height", func(tree *BPTree, _ []int32) { tree.height++ }, "at depth"},
		{"short slab chunk", func(tree *BPTree, _ []int32) { tree.chunks[0] = tree.chunks[0][:tree.nodes-1] }, "slab chunk 0 holds"},
	} {
		tree := NewBPTree(testArena(), 16)
		for k := range uint64(100) {
			tree.Insert(k, nil)
		}
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatalf("%s: before corrupting: %s", c.name, msg)
		}
		c.corrupt(tree, bpLeaves(t, tree))
		if msg := tree.CheckInvariants(); !strings.Contains(msg, c.want) {
			t.Errorf("%s: CheckInvariants = %q, want %q", c.name, msg, c.want)
		}
	}
}

// loadedTree keeps BenchmarkBPTreeAscendingLoad's result reachable.
var loadedTree *BPTree

// BenchmarkBPTreeAscendingLoad times an untraced ascending load of 1M
// keys at fanout 256, the shape of every TATP and TPC-C table build.
func BenchmarkBPTreeAscendingLoad(b *testing.B) {
	const keys = 1 << 20
	b.ReportAllocs()
	for range b.N {
		loadedTree = NewBPTree(testArena(), 256)
		for k := range uint64(keys) {
			loadedTree.Insert(k, nil)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*keys), "ns/key")
}

// BenchmarkBPTreeGet times untraced random Gets over a 1M-key tree
// loaded in ascending order with TATP access-info keys (s*4 and s*4+1 per
// subscriber s), so frozen leaves are strided at gaps 1 and 3. Half the
// probes hit, and half miss at s*4+2 or s*4+3.
func BenchmarkBPTreeGet(b *testing.B) {
	const subscribers = 1 << 19
	tree := NewBPTree(testArena(), 256)
	for s := range uint64(subscribers) {
		tree.Insert(s*4, nil)
		tree.Insert(s*4+1, nil)
	}
	rng := rand.New(rand.NewPCG(1, 2))
	probes := make([]uint64, 1<<16)
	for i := range probes {
		probes[i] = rng.Uint64N(subscribers * 4)
	}
	b.ResetTimer()
	hits := 0
	for i := range b.N {
		if tree.Get(probes[i&(len(probes)-1)], nil) {
			hits++
		}
	}
	if b.N >= len(probes) && (hits < b.N/3 || hits > 2*b.N/3) {
		b.Fatalf("%d hits in %d gets; want about half", hits, b.N)
	}
}

func TestBPTreeAccessesOnePagePerLevel(t *testing.T) {
	tree := NewBPTree(testArena(), 8)
	sink := NewTracer(1)
	for i := uint64(0); i < 5000; i++ {
		tree.Insert(i, sink)
	}
	tr := NewTracer(1)
	tree.Get(2500, tr)
	if n := len(tr.Take()); n != tree.Height() {
		t.Fatalf("get traced %d accesses for height %d", n, tree.Height())
	}
}

func TestSiloOCCCommit(t *testing.T) {
	db := NewSiloDB(testArena())
	sink := NewTracer(1)
	db.Load(1, 10, sink)
	db.Load(2, 20, sink)
	tr := NewTracer(1)
	txn := db.Begin(tr)
	v, ok := txn.Read(1)
	if !ok || v != 10 {
		t.Fatalf("read = %d,%v", v, ok)
	}
	txn.Write(1, v+1)
	if v, _ := txn.Read(1); v != 11 {
		t.Fatalf("read-your-writes = %d", v)
	}
	if !txn.Commit() {
		t.Fatal("uncontended commit failed")
	}
	tr2 := NewTracer(1)
	txn2 := db.Begin(tr2)
	if v, _ := txn2.Read(1); v != 11 {
		t.Fatalf("committed value = %d", v)
	}
	if !txn2.Commit() {
		t.Fatal("read-only commit failed")
	}
	if db.Commits != 2 || db.Aborts != 0 {
		t.Fatalf("commits/aborts = %d/%d", db.Commits, db.Aborts)
	}
}

func TestSiloOCCValidationAborts(t *testing.T) {
	db := NewSiloDB(testArena())
	sink := NewTracer(1)
	db.Load(1, 10, sink)
	tr := NewTracer(1)
	t1 := db.Begin(tr)
	t1.Read(1)
	// A second transaction commits a write between t1's read and commit.
	t2 := db.Begin(NewTracer(1))
	v, _ := t2.Read(1)
	t2.Write(1, v+100)
	if !t2.Commit() {
		t.Fatal("t2 commit failed")
	}
	t1.Write(1, 99)
	if t1.Commit() {
		t.Fatal("stale read validated; serializability broken")
	}
	if db.Commits != 1 || db.Aborts != 1 {
		t.Fatalf("commits/aborts = %d/%d, want 1/1", db.Commits, db.Aborts)
	}
}

func TestSiloLockedRecordBlocksCommit(t *testing.T) {
	db := NewSiloDB(testArena())
	db.Load(1, 10, NewTracer(1))
	// Simulate a concurrent holder by locking the record directly.
	db.records[1].locked = true
	txn := db.Begin(NewTracer(1))
	v, _ := txn.Read(1)
	txn.Write(1, v+1)
	if txn.Commit() {
		t.Fatal("commit succeeded over a locked record")
	}
}

func TestMasstreePutGet(t *testing.T) {
	mt := NewMasstree(testArena())
	tr := NewTracer(1)
	key := []byte("0123456789abcdef") // 16 bytes = 2 layers
	mt.Put(key, 7, tr)
	v, ok := mt.Get(key, tr)
	if !ok || v != 7 {
		t.Fatalf("get = %d,%v", v, ok)
	}
	if _, ok := mt.Get([]byte("0123456789abcdeX"), tr); ok {
		t.Fatal("found absent key sharing a prefix")
	}
	if mt.Size() != 1 {
		t.Fatalf("size = %d", mt.Size())
	}
}

func TestMasstreeLayering(t *testing.T) {
	mt := NewMasstree(testArena())
	// Two keys sharing an 8-byte prefix must land in the same layer-2
	// tree; the traversal must touch both layers.
	a := []byte("prefix__suffixA_")
	b := []byte("prefix__suffixB_")
	mt.Put(a, 1, NewTracer(1))
	mt.Put(b, 2, NewTracer(1))
	tr := NewTracer(1)
	if v, ok := mt.Get(a, tr); !ok || v != 1 {
		t.Fatalf("a = %d,%v", v, ok)
	}
	if n := len(tr.Take()); n < 2 {
		t.Fatalf("two-layer get traced %d accesses", n)
	}
	if v, ok := mt.Get(b, NewTracer(1)); !ok || v != 2 {
		t.Fatalf("b = %d,%v", v, ok)
	}
}

// TestMasstreeTerminalVsPrefix pins the per-layer terminal marker: a
// slice that leads to a deeper layer is in the layer's tree whether or
// not a key also ends there, so only vals tells the two apart.
func TestMasstreeTerminalVsPrefix(t *testing.T) {
	mt := NewMasstree(testArena())
	mt.Put([]byte("prefix__suffix__"), 1, NewTracer(1))
	if v, ok := mt.Get([]byte("prefix__"), NewTracer(1)); ok {
		t.Fatalf("bare prefix of a stored key found (value %d)", v)
	}
	mt.Put([]byte("prefix__"), 2, NewTracer(1))
	if v, ok := mt.Get([]byte("prefix__"), NewTracer(1)); !ok || v != 2 {
		t.Fatalf("prefix = %d,%v after its own Put", v, ok)
	}
	if v, ok := mt.Get([]byte("prefix__suffix__"), NewTracer(1)); !ok || v != 1 {
		t.Fatalf("long key = %d,%v", v, ok)
	}
	if mt.Size() != 2 {
		t.Fatalf("size = %d, want 2", mt.Size())
	}
}

func TestMasstreeUpdate(t *testing.T) {
	mt := NewMasstree(testArena())
	key := []byte("0123456789abcdef")
	mt.Put(key, 1, NewTracer(1))
	if !mt.Update(key, 5, NewTracer(1)) {
		t.Fatal("update missed key")
	}
	if v, _ := mt.Get(key, NewTracer(1)); v != 5 {
		t.Fatalf("value = %d", v)
	}
	if mt.Update([]byte("nosuchkey_______"), 1, NewTracer(1)) {
		t.Fatal("update hit absent key")
	}
}

func TestMasstreeShortAndEmptyKeys(t *testing.T) {
	mt := NewMasstree(testArena())
	mt.Put([]byte("ab"), 3, NewTracer(1))
	if v, ok := mt.Get([]byte("ab"), NewTracer(1)); !ok || v != 3 {
		t.Fatalf("short key = %d,%v", v, ok)
	}
	mt.Put(nil, 9, NewTracer(1))
	if v, ok := mt.Get(nil, NewTracer(1)); !ok || v != 9 {
		t.Fatalf("empty key = %d,%v", v, ok)
	}
}

// TestMasstreeKeepsKeyLength checks that keys differing only in trailing
// zero bytes are distinct: the last slice is zero-padded, so only its
// stored length tells "ab" from "ab\x00", and the empty key from eight
// zero bytes.
func TestMasstreeKeepsKeyLength(t *testing.T) {
	mt := NewMasstree(testArena())
	keys := [][]byte{
		nil, []byte("\x00"), make([]byte, 8), []byte("ab"), []byte("ab\x00"),
		[]byte("prefix__ab"), []byte("prefix__ab\x00\x00"), []byte("prefix__\x00"),
	}
	for i, k := range keys {
		mt.Put(k, uint64(i)+1, NewTracer(1))
	}
	if mt.Size() != uint64(len(keys)) {
		t.Fatalf("size = %d, want %d", mt.Size(), len(keys))
	}
	for i, k := range keys {
		if !mt.Update(k, uint64(i)+100, NewTracer(1)) {
			t.Fatalf("Update(%q) missed", k)
		}
		if v, ok := mt.Get(k, NewTracer(1)); !ok || v != uint64(i)+100 {
			t.Fatalf("Get(%q) = %d,%v, want %d", k, v, ok, i+100)
		}
	}
	if v, ok := mt.Get([]byte("ab\x00\x00"), nil); ok {
		t.Fatalf("unstored key ab\\x00\\x00 found (value %d)", v)
	}
}

// mtKey is mtKeyN with the default 1024 prefixes.
func mtKey(i uint64) []byte {
	k := mtKeyN(i, 1024)
	return k[:]
}

func TestMasstreePropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint8) bool {
		rng := sim.NewRNG(seed)
		mt := NewMasstree(testArena())
		keys := make(map[string]uint64)
		for i := 0; i < int(n%64)+1; i++ {
			k := mtKey(rng.Uint64() % 1000)
			v := rng.Uint64()
			mt.Put(k, v, NewTracer(1))
			keys[string(k)] = v
		}
		for k, v := range keys {
			got, ok := mt.Get([]byte(k), NewTracer(1))
			if !ok || got != v {
				return false
			}
		}
		return mt.Size() == uint64(len(keys))
	}, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// FuzzBPTree decodes ops into mixes of ascending runs (dense, sparse at
// gaps around the largest a strided leaf holds, or alternating two gaps
// among 1, 2, 0xffff and 0x10000, the last kind also through appendRun up
// to the tail's room), re-inserts of the current maximum key, random
// inserts, probes of strided leaves' edges (base-1, either side of the
// second key, last+1), updates, gets and scans over a small-fanout tree,
// and checks every found bit and scanned key against a sorted slice of
// the stored keys. Op bytes from 0xf0 append at the tail against its
// stride: its next stride key or one past it, one key at a time, or an
// appendRun that continues the stride or breaks it at its first, second
// or third key. Op bytes from 0xe0 to 0xef split a leaf of a strided
// internal node, its last child or another, by inserting keys inside
// the leaf, so the strided node takes a separator and a child that
// break its children's run and unpacks. A traced twin takes every
// insert, appended runs too, as one Insert per key through the searched
// descent; after each op both trees' node slabs must be equal
// (bpSlabDiff), and the untraced tree's tail must be its last leaf.
func FuzzBPTree(f *testing.F) {
	f.Fuzz(func(t *testing.T, fan byte, ops []byte) {
		// Halves fill size classes exactly; a full leaf at fanout 6 splits
		// at mid 3, where a strided right half swaps its gaps.
		fanout := [...]int{4, 8, 16, 6}[fan%4]
		tree := NewBPTree(testArena(), fanout)
		twin, sink := NewBPTree(testArena(), fanout), NewTracer(1)
		// ref holds the stored keys in ascending order: sorted once per
		// insert, not per scan, so a long input stays cheap to run.
		var ref []uint64
		var maxKey uint64
		find := func(k uint64) (int, bool) {
			i := sort.Search(len(ref), func(i int) bool { return ref[i] >= k })
			return i, i < len(ref) && ref[i] == k
		}
		has := func(k uint64) bool { _, ok := find(k); return ok }
		insert := func(k uint64) {
			tree.Insert(k, nil)
			twin.Insert(k, sink)
			sink.Take()
			if i, ok := find(k); !ok {
				ref = append(ref, 0)
				copy(ref[i+1:], ref[i:])
				ref[i] = k
			}
			maxKey = max(maxKey, k)
		}
		get := func(k uint64) {
			if had := has(k); tree.Get(k, nil) != had {
				t.Fatalf("Get(%d) reported %v, reference has it: %v", k, !had, had)
			}
		}
		// appendRun appends a run to the tree and, key by key, to the twin.
		appendRun := func(first uint64, count int, d0, d1 uint64) {
			tree.appendRun(first, count, d0, d1)
			for i := range uint64(count) {
				k := first + i/2*(d0+d1) + i%2*d0
				twin.Insert(k, sink)
				sink.Take()
				ref = append(ref, k)
				maxKey = k
			}
		}
		// next returns the tail's next stride key and the gaps that follow
		// it, or, for a one-key or wide tail, maxKey+gap with that gap
		// twice.
		next := func(gap uint64) (k, d0, d1 uint64) {
			n := tree.node(tree.tail)
			if n.count < 2 {
				return maxKey + gap, gap, gap
			}
			if n.count%2 == 0 {
				return n.strideKey(int(n.count)), uint64(n.d0), uint64(n.d1)
			}
			return n.strideKey(int(n.count)), uint64(n.d1), uint64(n.d0)
		}
		for n := 0; len(ops) >= 2 && n < 512; n++ {
			op, arg := ops[0], uint64(ops[1])
			ops = ops[2:]
			key := arg // a small key space, so inserts collide
			sel := op % 9
			switch {
			case op >= 0xf0:
				sel = 9
			case op >= 0xe0:
				sel = 10
			}
			switch sel {
			case 0: // ascending run above the maximum
				start := maxKey + 1
				if len(ref) == 0 {
					start = key
				}
				for i := range arg%16 + 1 {
					insert(start + i*(arg%3+1))
				}
			case 1: // re-insert the maximum: rewrites, never appends
				if len(ref) > 0 {
					insert(maxKey)
				}
			case 2:
				insert(key)
			case 3:
				if had := has(key); tree.Update(key, nil) != had {
					t.Fatalf("Update(%d) reported %v, reference has it: %v", key, !had, had)
				}
			case 4:
				get(key)
			case 5:
				count := int(arg%32) + 1
				got := tree.Scan(key, count, nil)
				i, _ := find(key)
				if want := ref[i:min(i+count, len(ref))]; !stdslices.Equal(got, want) {
					t.Fatalf("Scan(%d, %d) = %v, want %v", key, count, got, want)
				}
			case 6: // sparse ascending run: gaps of 2^12-2^17, each power -1, +0 or +1
				gap := uint64(1)<<(12+arg%6) - 1 + arg/6%3
				for range arg/18 + 1 {
					insert(maxKey + gap)
				}
			case 7: // a run whose gaps alternate stride-edge values, or a strided leaf's edges
				if arg%2 == 0 {
					gaps := [...]uint64{1, 2, maxStrideGap, maxStrideGap + 1}
					g := [2]uint64{gaps[arg/2%4], gaps[arg/8%4]}
					for i := range arg/32*2 + 2 {
						insert(maxKey + g[i%2])
					}
					break
				}
				var strided []bpNode
				for _, ni := range bpLeaves(t, tree) {
					if n := tree.node(ni); n.count != 0 {
						strided = append(strided, *n)
					}
				}
				if len(strided) == 0 {
					break
				}
				n := strided[int(arg/8)%len(strided)]
				edge := arg / 2 % 4
				if edge == 0 && n.base == 0 {
					break // base-1 would wrap to 2^64-1, above every later run
				}
				k := [...]uint64{n.base - 1, n.base + uint64(n.d0) - 1, n.base + uint64(n.d0) + 1,
					n.strideKey(int(n.count)-1) + 1}[edge]
				get(k)
				insert(k)
			case 8: // a run through appendRun, as many keys as the tail takes
				gaps := [...]uint64{1, 2, maxStrideGap, maxStrideGap + 1}
				d0, d1 := gaps[arg%4], gaps[arg/4%4]
				first := maxKey + d1
				if len(ref) == 0 {
					first = key
				}
				appendRun(first, min(int(arg/16)+1, tree.tailRoom()), d0, d1)
			case 9: // appends against the tail's stride
				switch {
				case len(ref) == 0:
					insert(key)
				case op%2 == 0: // key by key: on stride, or one past it
					for range arg/2%8 + 1 {
						k, _, _ := next(arg/16%3 + 1)
						insert(k + arg%2)
					}
				default: // an appendRun from the tail's next stride key
					k, d0, d1 := next(arg/16%3 + 1)
					switch arg % 4 {
					case 1: // breaks at the run's first key
						k++
					case 2: // breaks at its second key
						d0++
					case 3: // breaks at its third key
						d1++
					}
					appendRun(k, min(int(arg/4%4)*3+1, tree.tailRoom()), d0, d1)
				}
			case 10: // split a leaf of a strided internal node from inside it
				var last, inner []int32
				reached := make(map[int32]bool)
				var walk func(ni int32)
				walk = func(ni int32) {
					if reached[ni] {
						t.Fatalf("op %d: node %d reached twice", n, ni)
					}
					reached[ni] = true
					n := tree.node(ni)
					if n.leaf {
						return
					}
					keys, strided := tree.numKeys(n), n.count != 0
					for i := range keys + 1 {
						c := tree.child(tree.node(ni), i)
						switch {
						case !strided || !tree.node(c).leaf:
						case i == keys:
							last = append(last, c)
						default:
							inner = append(inner, c)
						}
						walk(c)
					}
				}
				walk(tree.root)
				leaves := last
				if arg%2 == 1 && len(inner) > 0 || len(last) == 0 {
					leaves = inner
				}
				if len(leaves) == 0 {
					break
				}
				// Insert k+1, then k+2, for the leaf's keys k, where absent,
				// until the leaf splits: each lands in the same leaf, so the
				// split pushes a separator and a new child into the strided
				// parent at the leaf's position, which breaks its children's
				// run and, but for a one-separator root, its separators' gap.
				leaf := tree.node(leaves[int(arg/2)%len(leaves)])
				need := fanout + 1 - tree.numKeys(leaf)
				var keys []uint64
				for d := uint64(1); d <= 2; d++ {
					for i := range tree.numKeys(leaf) {
						if k := tree.keyAt(leaf, i) + d; !has(k) && len(keys) < need {
							keys = append(keys, k)
						}
					}
				}
				for _, k := range keys {
					insert(k)
				}
			}
			if maxKey > math.MaxUint64/2 { // the "above the maximum" runs would wrap
				t.Fatalf("op %d: maximum %d wrapped", n, maxKey)
			}
			if tree.Size() != uint64(len(ref)) {
				t.Fatalf("size %d, reference holds %d", tree.Size(), len(ref))
			}
			if msg := bpSlabDiff(tree, twin); msg != "" {
				t.Fatalf("op %d: untraced tree differs from its traced twin: %s", n, msg)
			}
			if leaves := bpLeaves(t, tree); tree.tail != leaves[len(leaves)-1] {
				t.Fatalf("op %d: tail is not the last of %d leaves", n, len(leaves))
			}
		}
		if msg := tree.CheckInvariants(); msg != "" {
			t.Fatal(msg)
		}
		for _, k := range ref {
			if !tree.Get(k, nil) {
				t.Fatalf("lost key %d", k)
			}
		}
		for ni := range tree.nodes {
			if msg := storageError(tree, ni); msg != "" {
				t.Fatal(msg)
			}
		}
	})
}
