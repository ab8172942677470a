package workload

import (
	"fmt"
	"math"

	"astriflash/internal/mem"
)

// bpNode is one B+-tree node occupying a full 4 KB arena page, so each
// level of a traversal is one page access — the layout in-memory
// databases (Silo, Masstree's layer trees, the TATP/TPC-C indexes) use.
// Leaves hold keys only: the simulated row payload lives on the node's
// arena page, and every trace derives from node pages and keys.
//
// A node is 24 bytes and holds no pointers: it lives in its tree's node
// slab and names other nodes by slab index. A node stores its keys (a
// leaf's keys, an internal node's separators) in one of two forms.
//
// Strided (count > 0): base is the first key and count the number of
// keys. A strided leaf's gaps alternate two values d0 and d1 of at most
// maxStrideGap: key i is base + (i/2)*(d0+d1) + (i%2)*d0. A leaf's first
// key makes it strided, and it stays so while each key it takes extends
// the progression at its end (push): its second key fixes d0 and its
// third d1. A strided internal node's separators are one arithmetic
// progression, base + i*g with the gap g = d0|d1<<16 below 2^32, and its
// count+1 children sit at consecutive slab indices from next: child i is
// next+i. A split freezes such a left half (splitInternal), and a new
// root over two adjacent nodes starts so. A gap no two of a node's keys
// span holds any nonzero value (1 in a one-key node), which no reader
// uses.
//
// Wide (count 0): the keys, and an internal node's children, are arrays
// in the tree's side table at slot base. A strided node unpacks into it
// for a key or child that breaks its progression (room), and the empty
// tree's root is a wide leaf with no keys. Readers go through search,
// route, numKeys, keyAt and child, which read both forms.
type bpNode struct {
	base   uint64 // strided: its first key; wide: its side-table slot
	page   uint32 // the node's arena page
	next   int32  // leaf: the next leaf in key order, or noNode; strided internal node: its first child; wide internal node: noNode
	count  uint16 // strided: its number of keys; 0 for a wide node
	d0, d1 uint16 // strided leaf: the even and odd gaps; strided internal node: the gap's low and high 16 bits
	leaf   bool
}

// bpArrays is a wide node's side-table entry: a leaf's keys, or an
// internal node's separator keys and its children's slab indices.
type bpArrays struct {
	keys     []uint64
	children []int32
}

const (
	// maxStrideGap is the largest gap a strided leaf holds: the largest
	// 16-bit value.
	maxStrideGap = 0xffff
	// maxFanout keeps a leaf's count, at most fanout+1 before it splits,
	// within 16 bits.
	maxFanout = math.MaxUint16 - 1
	// noNode ends the leaf chain.
	noNode int32 = -1
	// The node slab is chunks of chunkNodes nodes (24 KiB), never moved
	// once full, so a tree's slack is at most one part-filled chunk. The
	// first chunk starts at firstChunkNodes and doubles up to chunkNodes,
	// because Masstree builds a tree per layer and most stay a few nodes.
	chunkShift      = 10
	chunkNodes      = 1 << chunkShift
	firstChunkNodes = 4
)

// addr returns the node's arena address.
func (n *bpNode) addr() mem.Addr { return mem.PageBase(mem.PageNum(n.page)) }

// strideKey returns a strided leaf's i'th key. The mask adds d0 for an
// odd i without a second multiply: per-key appends compute it every key.
func (n *bpNode) strideKey(i int) uint64 {
	u := uint64(i)
	return n.base + u/2*(uint64(n.d0)+uint64(n.d1)) + -(u&1)&uint64(n.d0)
}

// gap returns a strided internal node's separator gap.
func (n *bpNode) gap() uint64 { return uint64(n.d0) | uint64(n.d1)<<16 }

// setGap stores g, below 2^32, as a strided internal node's gap.
func (n *bpNode) setGap(g uint64) { n.d0, n.d1 = uint16(g), uint16(g>>16) }

// extends reports whether key is the next stride key of a strided leaf
// whose gaps are fixed: one of three or more keys.
func (n *bpNode) extends(key uint64) bool {
	return n.count >= 3 && key == n.strideKey(int(n.count))
}

// strideSearch is search over a strided leaf, answered by division:
// key's offset from base falls r into period q, which holds keys 2q (at
// r = 0) and 2q+1 (at r = d0).
func (n *bpNode) strideSearch(key uint64) (int, bool) {
	if key < n.base {
		return 0, false
	}
	off, d0, period := key-n.base, uint64(n.d0), uint64(n.d0)+uint64(n.d1)
	q, r := off/period, off%period
	var i uint64
	found := false
	switch {
	case r == 0:
		i, found = 2*q, true
	case r <= d0:
		i, found = 2*q+1, r == d0
	default: // r > d0 >= 1 needs a period of at least 3, so 2q+2 cannot wrap
		i = 2*q + 2
	}
	if i >= uint64(n.count) {
		return int(n.count), false
	}
	return int(i), found
}

// BPTree is a key-only B+-tree with page-sized, arena-addressed nodes and
// traced traversals.
type BPTree struct {
	// chunks is the node slab: node i is chunks[i>>chunkShift][i&(chunkNodes-1)].
	// A *bpNode from node stays valid until the next newNode, which may
	// move the first chunk while it doubles.
	chunks [][]bpNode
	nodes  int32
	// wide is the side table of wide nodes' arrays, indexed by their base.
	// A slot is never freed: a split hands the full arrays to the right
	// half and gives the left half a new slot, or none when it strides.
	wide   []bpArrays
	arena  *mem.Arena
	fanout int
	size   uint64
	height int
	root   int32
	// tail is the rightmost leaf, where untraced ascending inserts append.
	tail int32
	// tailNode is node(tail), kept for the per-key append: a split of the
	// tail and newNode's move of the first chunk refresh it.
	tailNode *bpNode
	// tailNext is the tail's next stride key while the tail is strided
	// with three or more keys (syncTail), so the per-key append compares
	// without computing it.
	tailNext uint64
}

// NewBPTree returns an empty tree. Fanout is the max keys per node; 256
// eight-byte keys plus pointers fill a 4 KB page. Its root is a wide leaf
// with no keys at slot 0, which its first key makes strided and frees
// (extendShort).
func NewBPTree(arena *mem.Arena, fanout int) *BPTree {
	if fanout < 4 || fanout > maxFanout {
		panic(fmt.Sprintf("workload: B+tree fanout %d outside [4, %d]", fanout, maxFanout))
	}
	t := &BPTree{arena: arena, fanout: fanout, height: 1}
	t.root = t.newNode(true)
	t.node(t.root).base = t.newSlot(nil, nil)
	t.tail, t.tailNode = t.root, t.node(t.root)
	return t
}

// node returns the node at slab index i.
func (t *BPTree) node(i int32) *bpNode { return &t.chunks[i>>chunkShift][i&(chunkNodes-1)] }

// newNode places a node on its own arena page and returns its slab index.
// The caller gives a wide node its slot (newSlot).
func (t *BPTree) newNode(leaf bool) int32 {
	i, page := t.nodes, mem.PageOf(t.arena.AllocPage())
	if page > math.MaxUint32 || i == math.MaxInt32 {
		panic(fmt.Sprintf("workload: B+tree node %d on page %d does not fit the 32-bit node layout", i, page))
	}
	c := int(i >> chunkShift)
	switch {
	case i == 0:
		t.chunks = append(t.chunks, make([]bpNode, 0, firstChunkNodes))
	case c == len(t.chunks):
		t.chunks = append(t.chunks, make([]bpNode, 0, chunkNodes))
	case len(t.chunks[c]) == cap(t.chunks[c]): // only the first chunk fills below chunkNodes
		t.chunks[c] = append(make([]bpNode, 0, 2*cap(t.chunks[c])), t.chunks[c]...)
		t.tailNode = t.node(t.tail)
	}
	t.chunks[c] = append(t.chunks[c], bpNode{page: uint32(page), next: noNode, leaf: leaf})
	t.nodes++
	return i
}

// newSlot appends a wide node's arrays to the side table and returns
// their slot.
func (t *BPTree) newSlot(keys []uint64, children []int32) uint64 {
	t.wide = append(t.wide, bpArrays{keys, children})
	return uint64(len(t.wide) - 1)
}

// room returns wide node n's arrays with room for one more key. A strided
// node first unpacks into a new slot of the split size, and arrays a
// split froze at exact size regrow to the split size (fanout+1 keys,
// fanout+2 children) in one step, where append's doubling would
// overshoot.
func (t *BPTree) room(n *bpNode) *bpArrays {
	if n.count != 0 {
		keys := make([]uint64, n.count, t.fanout+1)
		for i := range keys {
			keys[i] = t.keyAt(n, i)
		}
		var children []int32
		if !n.leaf {
			children = make([]int32, n.count+1, t.fanout+2)
			for i := range children {
				children[i] = n.next + int32(i)
			}
			n.next = noNode
		}
		n.base, n.count, n.d0, n.d1 = t.newSlot(keys, children), 0, 0, 0
	}
	w := &t.wide[n.base]
	if len(w.keys) == cap(w.keys) {
		w.keys = append(make([]uint64, 0, t.fanout+1), w.keys...)
	}
	if !n.leaf && len(w.children) == cap(w.children) {
		w.children = append(make([]int32, 0, t.fanout+2), w.children...)
	}
	return w
}

// numKeys returns the number of keys a node holds, in either form.
func (t *BPTree) numKeys(n *bpNode) int {
	if n.count != 0 {
		return int(n.count)
	}
	return len(t.wide[n.base].keys)
}

// keyAt returns a node's i'th key, in either form.
func (t *BPTree) keyAt(n *bpNode, i int) uint64 {
	switch {
	case n.count == 0:
		return t.wide[n.base].keys[i]
	case n.leaf:
		return n.strideKey(i)
	}
	return n.base + uint64(i)*n.gap()
}

// child returns internal node n's i'th child, in either form.
func (t *BPTree) child(n *bpNode, i int) int32 {
	if n.count != 0 {
		return n.next + int32(i)
	}
	return t.wide[n.base].children[i]
}

// route returns the position of the child internal node n descends for
// key, the smallest i whose separator is above key, and that child. A
// strided node divides: key's offset from base falls in gap q, so
// separators 0..q are at most key.
func (t *BPTree) route(n *bpNode, key uint64) (int, int32) {
	if n.count == 0 {
		w := &t.wide[n.base]
		i := findChild(w.keys, key)
		return i, w.children[i]
	}
	i := 0
	if key >= n.base {
		i = int(n.count)
		if q := (key - n.base) / n.gap(); q < uint64(n.count) {
			i = int(q) + 1
		}
	}
	return i, n.next + int32(i)
}

// search returns the smallest i with keyAt(n, i) >= key and whether
// keyAt(n, i) is key: lowerBound's position and found bit over either
// form.
func (t *BPTree) search(n *bpNode, key uint64) (int, bool) {
	if n.count != 0 {
		return n.strideSearch(key)
	}
	keys := t.wide[n.base].keys
	i := lowerBound(keys, key)
	return i, i < len(keys) && keys[i] == key
}

// Size returns the number of stored keys.
func (t *BPTree) Size() uint64 { return t.size }

// Height returns the tree height (1 = root is a leaf).
func (t *BPTree) Height() int { return t.height }

// findChild returns the child index to descend in a wide internal node
// for key: the smallest i with keys[i] > key. Hand-rolled with
// sort.Search's exact midpoint arithmetic — the closure-free loop is
// measurably faster on the per-access hot path and visits identical probe
// sequences.
func findChild(keys []uint64, key uint64) int {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if keys[h] <= key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// lowerBound returns the smallest i with keys[i] >= key, with the same
// probe sequence as sort.Search.
func lowerBound(keys []uint64, key uint64) int {
	i, j := 0, len(keys)
	for i < j {
		h := int(uint(i+j) >> 1)
		if keys[h] < key {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// leafFor descends to key's leaf, tracing one access per internal level;
// the caller traces the leaf.
func (t *BPTree) leafFor(key uint64, tr *Tracer) *bpNode {
	n := t.node(t.root)
	for !n.leaf {
		tr.Touch(n.addr(), false)
		_, c := t.route(n, key)
		n = t.node(c)
	}
	return n
}

// find descends to key's leaf, tracing one access per level, and reports
// whether the leaf holds key.
func (t *BPTree) find(key uint64, tr *Tracer) (*bpNode, bool) {
	n := t.leafFor(key, tr)
	tr.Touch(n.addr(), false)
	_, ok := t.search(n, key)
	return n, ok
}

// Get searches for key, tracing one access per level. It reports whether
// the key is present.
func (t *BPTree) Get(key uint64, tr *Tracer) bool {
	_, ok := t.find(key, tr)
	return ok
}

// Update rewrites an existing key's row, tracing the path and the leaf
// write. It reports whether the key existed.
func (t *BPTree) Update(key uint64, tr *Tracer) bool {
	n, ok := t.find(key, tr)
	if ok {
		tr.Touch(n.addr(), true)
	}
	return ok
}

// Scan reads up to count consecutive keys starting at key, tracing the
// descent and each leaf page touched. It returns the keys read.
func (t *BPTree) Scan(key uint64, count int, tr *Tracer) []uint64 {
	n := t.leafFor(key, tr)
	i, _ := t.search(n, key)
	tr.Touch(n.addr(), false)
	var out []uint64
	for {
		for ; i < t.numKeys(n) && len(out) < count; i++ {
			out = append(out, t.keyAt(n, i))
		}
		if n.next == noNode || len(out) >= count {
			return out
		}
		n, i = t.node(n.next), 0
		tr.Touch(n.addr(), false)
	}
}

// Insert adds key, or rewrites its row if present, tracing the path, leaf
// write, and any splits. An untraced key above the maximum appends to the
// tail leaf when that leaf has room: the descent would reach the same
// leaf and append at its end without splitting, so ascending loads (every
// TATP and TPC-C table) build the same tree without walking it.
func (t *BPTree) Insert(key uint64, tr *Tracer) {
	// The common case, a key that extends a strided tail, is push's first
	// branch spelled out, without a call or a slab lookup: the key is the
	// cached next stride key, and the next one is a gap further, d0 after
	// an even key.
	if tr == nil {
		n := t.tailNode
		if key == t.tailNext && n.count >= 3 && int(n.count) < t.fanout {
			g := n.d1
			if n.count%2 == 0 {
				g = n.d0
			}
			n.count++
			t.tailNext += uint64(g)
			t.size++
			return
		}
		if t.numKeys(n) < t.fanout && t.push(n, key) {
			t.syncTail()
			return
		}
	}
	promoted, right := t.insert(t.root, 1, key, tr)
	if right != noNode {
		root := t.newNode(false)
		n := t.node(root)
		if right == t.root+1 {
			n.base, n.count, n.next = promoted, 1, t.root
			n.setGap(1)
		} else {
			keys := append(make([]uint64, 0, t.fanout+1), promoted)
			children := append(make([]int32, 0, t.fanout+2), t.root, right)
			n.base = t.newSlot(keys, children)
		}
		t.root = root
		t.height++
		tr.Touch(n.addr(), true)
	}
	t.syncTail()
}

// tailRoom returns the number of keys above the maximum the tail leaf
// takes before an insert splits it: appendRun's bound.
func (t *BPTree) tailRoom() int { return t.fanout - t.numKeys(t.node(t.tail)) }

// appendRun appends the n keys first, first+d0, first+d0+d1, ... (gaps
// alternating d0 and d1, both nonzero, the last key below 2^64) to the
// tail leaf. With first above every key and n <= tailRoom() it is
// exactly n untraced Inserts, which all take the tail append and none
// splits; it panics outside those bounds. An ascending load calls it
// between splits, and Insert for the key that splits.
func (t *BPTree) appendRun(first uint64, n int, d0, d1 uint64) {
	tail := t.node(t.tail)
	if l := t.numKeys(tail); n > t.fanout-l || n > 0 && l > 0 && t.keyAt(tail, l-1) >= first {
		panic(fmt.Sprintf("workload: appendRun of %d keys from %d past a tail of %d keys", n, first, l))
	}
	// The first three keys fix or check the tail's gaps at both parities
	// against the run's d0 and d1. A tail still strided after them has
	// taken both gaps of the run in phase, so the rest of the run extends
	// its stride too.
	k := first
	for i := range n {
		if i == 3 && tail.count != 0 {
			tail.count += uint16(n - i)
			t.size += uint64(n - i)
			break
		}
		t.push(tail, k)
		if i%2 == 0 {
			k += d0
		} else {
			k += d1
		}
	}
	t.syncTail()
}

// push appends key to leaf n when key is above every key of n, and
// reports whether it did: as a stride key when n stays strided (extends,
// extendShort), else into n's wide array, which a strided n first
// unpacks into.
func (t *BPTree) push(n *bpNode, key uint64) bool {
	if n.extends(key) {
		n.count++
	} else if !t.extendShort(n, key) {
		if t.keyAt(n, t.numKeys(n)-1) >= key {
			return false
		}
		w := t.room(n)
		w.keys = append(w.keys, key)
	}
	t.size++
	return true
}

// syncTail sets tailNext to the tail's next stride key when the tail is
// strided with three or more keys. Insert and appendRun, the only entry
// points that change a tree, call it before they return, but for
// Insert's own stride append, which advances tailNext itself.
func (t *BPTree) syncTail() {
	if n := t.tailNode; n.count >= 3 {
		t.tailNext = n.strideKey(int(n.count))
	}
}

// extendShort appends key to a leaf of fewer than three keys when the
// leaf stays strided, and reports whether it did: a one- or two-key leaf
// takes a key above its last within maxStrideGap, which fixes d0 or d1,
// and the empty tree's root takes any key. The root's slot is the tree's
// only one, so the side table empties and the next wide node takes slot
// 0.
func (t *BPTree) extendShort(n *bpNode, key uint64) bool {
	switch n.count {
	case 0:
		if t.size != 0 {
			return false
		}
		t.wide = t.wide[:0]
		n.base, n.d0, n.d1 = key, 1, 1
	case 1, 2:
		last := n.strideKey(int(n.count) - 1)
		if key <= last || key-last > maxStrideGap {
			return false
		}
		if n.count == 1 {
			n.d0 = uint16(key - last)
		}
		n.d1 = uint16(key - last)
	default:
		return false
	}
	n.count++
	return true
}

// insert descends recursively from node ni at level (the root is 1); on
// split it returns the promoted separator key and the new right sibling's
// index, else noNode. An internal node at the leaves' level means the
// child links form a cycle: insert panics naming the node, where the
// recursion would otherwise overflow the stack.
func (t *BPTree) insert(ni int32, level int, key uint64, tr *Tracer) (uint64, int32) {
	n := t.node(ni)
	tr.Touch(n.addr(), false)
	if n.leaf {
		i, ok := t.search(n, key)
		if ok {
			tr.Touch(n.addr(), true)
			return 0, noNode
		}
		if i == t.numKeys(n) {
			t.push(n, key)
		} else {
			w := t.room(n)
			w.keys = append(w.keys, 0)
			copy(w.keys[i+1:], w.keys[i:])
			w.keys[i] = key
			t.size++
		}
		tr.Touch(n.addr(), true)
		if t.numKeys(n) <= t.fanout {
			return 0, noNode
		}
		return t.splitLeaf(ni, tr)
	}
	if level >= t.height {
		panic(fmt.Sprintf("bptree: internal node %d at level %d of a %d-level tree", ni, level, t.height))
	}
	ci, c := t.route(n, key)
	promoted, right := t.insert(c, level+1, key, tr)
	if right == noNode {
		return 0, noNode
	}
	// The split below may have moved the first chunk and the side table.
	// A strided node unpacks: right is the slab's newest node, and this
	// node, or the right half split off beside it, is newer than its last
	// child, so right never continues its children.
	n = t.node(ni)
	w := t.room(n)
	w.keys = append(w.keys, 0)
	copy(w.keys[ci+1:], w.keys[ci:])
	w.keys[ci] = promoted
	w.children = append(w.children, 0)
	copy(w.children[ci+2:], w.children[ci+1:])
	w.children[ci+1] = right
	tr.Touch(n.addr(), true)
	if len(w.keys) <= t.fanout {
		return 0, noNode
	}
	return t.splitInternal(ni, tr)
}

// splitLeaf moves the upper half of a full leaf to a new right sibling.
// A strided leaf splits in O(1): both halves stay strided, and the right
// half, which starts at key mid, takes the gaps in the phase of mid's
// parity. TATP and TPC-C bulk-load every table in ascending key order
// (each an arithmetic or period-2 progression), so their leaves only ever
// split this way. A wide leaf's right half takes over the full-size array
// and its slot, with its keys shifted to the front, since ascending
// inserts keep landing there. Its left half is frozen at its exact size:
// strided when its gaps fit the form, else in a new slot with an
// exact-size copy of its keys (append, unlike make, skips zeroing what it
// overwrites). A random insert into a frozen left half regrows it once,
// in room.
func (t *BPTree) splitLeaf(ni int32, tr *Tracer) (uint64, int32) {
	ri := t.newNode(true)
	n, r := t.node(ni), t.node(ri)
	if n.count != 0 {
		mid := n.count / 2
		r.base, r.count, r.d0, r.d1 = n.strideKey(int(mid)), n.count-mid, n.d0, n.d1
		if mid%2 == 1 {
			r.d0, r.d1 = n.d1, n.d0
		}
		n.count = mid
	} else {
		slot := n.base
		keys := t.wide[slot].keys
		mid := len(keys) / 2
		if d0, d1, ok := strides(keys[:mid]); ok {
			n.base, n.count, n.d0, n.d1 = keys[0], uint16(mid), d0, d1
		} else {
			n.base = t.newSlot(append([]uint64(nil), keys[:mid]...), nil)
		}
		r.base = slot
		t.wide[slot].keys = keys[:copy(keys, keys[mid:])]
	}
	r.next, n.next = n.next, ri
	if t.tail == ni {
		t.tail, t.tailNode = ri, r
	}
	tr.Touch(n.addr(), true)
	tr.Touch(r.addr(), true)
	return t.keyAt(r, 0), ri
}

// strides reports whether a wide leaf's ascending keys fit the strided
// form: at least two and at most 0xffff of them, with every even gap d0
// and every odd gap d1, both at most maxStrideGap. Two keys have one gap,
// taken as both.
func strides(keys []uint64) (d0, d1 uint16, ok bool) {
	if len(keys) < 2 || len(keys) > 0xffff {
		return 0, 0, false
	}
	g0, g1 := keys[1]-keys[0], keys[1]-keys[0]
	if len(keys) > 2 {
		g1 = keys[2] - keys[1]
	}
	if g0 > maxStrideGap || g1 > maxStrideGap {
		return 0, 0, false
	}
	// Gap i-1 ends at key i: even gaps are g0, odd ones g1, two per step.
	i := 3
	for ; i+1 < len(keys); i += 2 {
		if keys[i]-keys[i-1] != g0 || keys[i+1]-keys[i] != g1 {
			return 0, 0, false
		}
	}
	if i < len(keys) && keys[i]-keys[i-1] != g0 {
		return 0, 0, false
	}
	return uint16(g0), uint16(g1), true
}

// splitInternal moves the keys above the middle one, and their children,
// to a new right sibling and promotes the middle key. The node is wide:
// an insert unpacks a strided one first (room). As in splitLeaf, the
// right half takes over the full-size arrays and their slot, entries
// shifted to the front, since ascending loads keep pushing there; it stays
// wide because the next child pushed there is allocated after it, past
// its own slab index. The left half is frozen: strided when its
// separators and children fit the form (sepStride), else in a new slot
// with exact-size copies. Ascending loads never insert into it again, and
// a random insert unpacks or regrows it once, in room.
func (t *BPTree) splitInternal(ni int32, tr *Tracer) (uint64, int32) {
	ri := t.newNode(false)
	n, r := t.node(ni), t.node(ri)
	slot := n.base
	w := t.wide[slot]
	mid := len(w.keys) / 2
	promoted := w.keys[mid]
	if g, ok := sepStride(w.keys[:mid], w.children[:mid+1]); ok {
		n.base, n.count, n.next = w.keys[0], uint16(mid), w.children[0]
		n.setGap(g)
	} else {
		n.base = t.newSlot(append([]uint64(nil), w.keys[:mid]...), append([]int32(nil), w.children[:mid+1]...))
	}
	r.base = slot
	t.wide[slot] = bpArrays{w.keys[:copy(w.keys, w.keys[mid+1:])], w.children[:copy(w.children, w.children[mid+1:])]}
	tr.Touch(n.addr(), true)
	tr.Touch(r.addr(), true)
	return promoted, ri
}

// sepStride reports whether a wide internal node's separators and
// children fit the strided form, and the separators' gap: at least two
// separators at one gap below 2^32, and children at consecutive slab
// indices.
func sepStride(keys []uint64, children []int32) (uint64, bool) {
	if len(keys) < 2 || keys[1]-keys[0] >= 1<<32 {
		return 0, false
	}
	g := keys[1] - keys[0]
	for i := 2; i < len(keys); i++ {
		if keys[i]-keys[i-1] != g {
			return 0, false
		}
	}
	for i, c := range children {
		if c != children[0]+int32(i) {
			return 0, false
		}
	}
	return g, true
}

// CheckInvariants validates the node slab and the tree it holds: chunk
// sizes, every index in range, each node reached once from the root and
// each slot owned by exactly one wide node, child counts, fanout bounds,
// sortedness within subtree bounds, every leaf at the tree's height, the
// strided form (at least two keys below the root, nonzero gaps, a last
// key within uint64, an internal node's children within the slab), a
// tail that is the last leaf, with tailNode its node and tailNext its
// next stride key, and a leaf chain linking the leaves in key order. It
// returns "" when consistent, and a message, never a panic, for a
// malformed node.
func (t *BPTree) CheckInvariants() string {
	for c, ch := range t.chunks {
		if want := min(chunkNodes, int(t.nodes)-c*chunkNodes); len(ch) != want {
			return fmt.Sprintf("slab chunk %d holds %d nodes, want %d", c, len(ch), want)
		}
	}
	if int(t.nodes) > len(t.chunks)*chunkNodes {
		return fmt.Sprintf("%d nodes in %d slab chunks", t.nodes, len(t.chunks))
	}
	c := bpChecker{t: t, reached: make([]bool, t.nodes), owned: make([]bool, len(t.wide))}
	if msg := c.check(t.root, 1, nil, nil); msg != "" {
		return msg
	}
	if last := c.leaves[len(c.leaves)-1]; t.tail != last {
		return fmt.Sprintf("tail is node %d, last leaf %d", t.tail, last)
	}
	if t.tailNode != t.node(t.tail) {
		return "tailNode is not the tail's node"
	}
	if n := t.node(t.tail); n.count >= 3 && t.tailNext != n.strideKey(int(n.count)) {
		return fmt.Sprintf("tailNext %d, the tail's next stride key %d", t.tailNext, n.strideKey(int(n.count)))
	}
	next := c.leaves[0]
	for _, leaf := range c.leaves {
		if next != leaf {
			return fmt.Sprintf("leaf chain reaches node %d where key order has leaf %d", next, leaf)
		}
		next = t.node(leaf).next
	}
	if next != noNode {
		return fmt.Sprintf("leaf chain runs past the last leaf to node %d", next)
	}
	for i, r := range c.reached {
		if !r {
			return fmt.Sprintf("node %d unreachable from the root", i)
		}
	}
	for s, o := range c.owned {
		if !o {
			return fmt.Sprintf("slot %d owned by no node", s)
		}
	}
	return ""
}

// bpChecker is CheckInvariants' walk state: the nodes reached and slots
// owned so far, and the leaves in key order.
type bpChecker struct {
	t       *BPTree
	reached []bool
	owned   []bool
	leaves  []int32
}

// checkStrided validates a strided node's gaps, its last key and an
// internal node's children. A leaf's last key is less than 2^16 * 2^17
// past base, and an internal node's less than 2^16 * 2^32, so that offset
// cannot wrap, but base plus it can.
func (t *BPTree) checkStrided(n *bpNode) string {
	switch {
	case n.leaf:
		if n.d0 == 0 || n.d1 == 0 {
			return "strided leaf has a zero gap"
		}
	case n.gap() == 0:
		return "strided internal node has a zero gap"
	case n.next < 0 || int64(n.next)+int64(n.count) >= int64(t.nodes):
		return fmt.Sprintf("strided internal node's children %d..%d outside the slab [0, %d)",
			n.next, int64(n.next)+int64(n.count), t.nodes)
	}
	if last := t.keyAt(n, int(n.count)-1) - n.base; n.base > ^uint64(0)-last {
		return "strided node's last key past 2^64"
	}
	return ""
}

// check validates the subtree at ni, at depth (the root is 1), whose keys
// must lie in [lo, hi) where those bounds are set.
func (c *bpChecker) check(ni int32, depth int, lo, hi *uint64) string {
	t := c.t
	if ni < 0 || ni >= t.nodes {
		return fmt.Sprintf("node index %d out of range [0, %d)", ni, t.nodes)
	}
	if c.reached[ni] {
		return fmt.Sprintf("node %d reached twice", ni)
	}
	c.reached[ni] = true
	n := t.node(ni)
	if n.count != 0 {
		if msg := t.checkStrided(n); msg != "" {
			return msg
		}
		if n.count < 2 && ni != t.root {
			return "strided node below the root holds fewer than 2 keys"
		}
	} else {
		if n.base >= uint64(len(t.wide)) {
			return fmt.Sprintf("node %d: slot %d out of range [0, %d)", ni, n.base, len(t.wide))
		}
		if c.owned[n.base] {
			return fmt.Sprintf("node %d: slot %d owned twice", ni, n.base)
		}
		c.owned[n.base] = true
	}
	if n.leaf {
		switch {
		case depth != t.height:
			return fmt.Sprintf("leaf %d at depth %d, tree height %d", ni, depth, t.height)
		case n.next != noNode && (n.next < 0 || n.next >= t.nodes):
			return fmt.Sprintf("leaf %d: next %d out of range [0, %d)", ni, n.next, t.nodes)
		case n.count == 0 && t.wide[n.base].children != nil:
			return fmt.Sprintf("leaf %d holds children", ni)
		}
		c.leaves = append(c.leaves, ni)
	} else if n.count == 0 && n.next != noNode {
		return fmt.Sprintf("wide internal node %d has a next leaf", ni)
	}
	keys := t.numKeys(n)
	if keys > t.fanout {
		return "node over fanout"
	}
	for i := 1; i < keys; i++ {
		if t.keyAt(n, i-1) >= t.keyAt(n, i) {
			return "keys unsorted"
		}
	}
	for i := range keys {
		k := t.keyAt(n, i)
		if lo != nil && k < *lo {
			return "key below subtree bound"
		}
		if hi != nil && k >= *hi {
			return "key above subtree bound"
		}
	}
	if n.leaf {
		return ""
	}
	if n.count == 0 && len(t.wide[n.base].children) != keys+1 {
		return fmt.Sprintf("internal node %d: %d children for %d keys", ni, len(t.wide[n.base].children), keys)
	}
	for i := range keys + 1 {
		clo, chi := lo, hi
		var klo, khi uint64
		if i > 0 {
			klo = t.keyAt(n, i-1)
			clo = &klo
		}
		if i < keys {
			khi = t.keyAt(n, i)
			chi = &khi
		}
		if msg := c.check(t.child(n, i), depth+1, clo, chi); msg != "" {
			return msg
		}
	}
	return ""
}
