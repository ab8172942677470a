package workload

import (
	"fmt"

	"astriflash/internal/mem"
)

// bpNode is one B+-tree node occupying a full 4 KB arena page, so each
// level of a traversal is one page access — the layout in-memory
// databases (Silo, Masstree's layer trees, the TATP/TPC-C indexes) use.
// Leaves hold keys only: the simulated row payload lives on the node's
// arena page, and every trace derives from node addresses and keys.
//
// A leaf stores its keys in one of two forms: wide, the keys themselves
// in keys, or strided, when splitLeaf froze a left half whose gaps
// alternate two values d0 and d1 of at most maxStrideGap: key i is
// base + (i/2)*(d0+d1) + (i%2)*d0 for i < count, and keys is nil. count,
// d0 and d1 sit in the padding after leaf, so the strided form costs no
// heap beyond the node. Readers go through search, numKeys and keyAt,
// which read both forms.
type bpNode struct {
	addr     mem.Addr
	leaf     bool
	count    uint16 // strided leaves: the number of keys; 0 otherwise
	d0, d1   uint16 // strided leaves: the even and odd gaps
	keys     []uint64
	base     uint64    // strided leaves: the first key
	children []*bpNode // internal nodes
	next     *bpNode   // leaf chain for scans
}

// maxStrideGap is the largest gap a strided leaf holds: the largest
// 16-bit value.
const maxStrideGap = 0xffff

// numKeys returns the number of keys a node holds, in either form.
func (n *bpNode) numKeys() int {
	if n.count != 0 {
		return int(n.count)
	}
	return len(n.keys)
}

// keyAt returns a node's i'th key, in either form.
func (n *bpNode) keyAt(i int) uint64 {
	if n.count != 0 {
		return n.base + uint64(i/2)*(uint64(n.d0)+uint64(n.d1)) + uint64(i%2)*uint64(n.d0)
	}
	return n.keys[i]
}

// search returns the smallest i with keyAt(i) >= key and whether
// keyAt(i) is key: lowerBound's position and found bit over either form.
// A strided leaf answers by division: key's offset from base falls r
// into period q, which holds keys 2q (at r = 0) and 2q+1 (at r = d0).
func (n *bpNode) search(key uint64) (int, bool) {
	if n.count == 0 {
		i := lowerBound(n.keys, key)
		return i, i < len(n.keys) && n.keys[i] == key
	}
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
	root   *bpNode
	arena  *mem.Arena
	fanout int
	size   uint64
	height int
	// tail is the rightmost leaf, where untraced ascending inserts append.
	// Its key array always has split size (the root's from growLeaf, or
	// the array a split hands its right half), so an append below fanout
	// never regrows it.
	tail *bpNode
	// slab is the current node chunk; nodes are handed out as pointers
	// into it (stable: a full chunk is replaced, never regrown), so bulk
	// loading a store costs one allocation per chunk instead of one per
	// node. Key arrays live outside the slab, sized per node.
	slab []bpNode
}

// NewBPTree returns an empty tree. Fanout is the max keys per node; 256
// eight-byte keys plus pointers fill a 4 KB page.
func NewBPTree(arena *mem.Arena, fanout int) *BPTree {
	if fanout < 4 {
		panic(fmt.Sprintf("workload: B+tree fanout %d too small", fanout))
	}
	t := &BPTree{arena: arena, fanout: fanout, height: 1}
	t.root = t.newNode(true)
	t.growLeaf(t.root)
	t.tail = t.root
	return t
}

// newNode places a node on its own arena page. Internal nodes get key and
// child arrays sized for their whole life up front (a node splits at
// fanout+1), so inserts never regrow them. Leaves start with no arrays:
// the caller hands them theirs (NewBPTree, splitLeaf).
func (t *BPTree) newNode(leaf bool) *bpNode {
	if len(t.slab) == cap(t.slab) {
		t.slab = make([]bpNode, 0, 64)
	}
	t.slab = append(t.slab, bpNode{addr: t.arena.AllocPage(), leaf: leaf})
	n := &t.slab[len(t.slab)-1]
	if !leaf {
		n.keys = make([]uint64, 0, t.fanout+1)
		n.children = make([]*bpNode, 0, t.fanout+2)
	}
	return n
}

// growLeaf gives a leaf a wide key array of the split size fanout+1: the
// new root up front, and a left half frozen by splitLeaf (trimmed or
// strided) on its first insert, in one step where append's doubling would
// overshoot to 2*len.
func (t *BPTree) growLeaf(n *bpNode) {
	keys := make([]uint64, n.numKeys(), t.fanout+1)
	if n.count == 0 {
		copy(keys, n.keys)
	} else {
		for i := range keys {
			keys[i] = n.keyAt(i)
		}
		n.count, n.d0, n.d1, n.base = 0, 0, 0, 0
	}
	n.keys = keys
}

// Size returns the number of stored keys.
func (t *BPTree) Size() uint64 { return t.size }

// Height returns the tree height (1 = root is a leaf).
func (t *BPTree) Height() int { return t.height }

// findChild returns the child index to descend for key: the smallest i
// with keys[i] > key. Hand-rolled with sort.Search's exact midpoint
// arithmetic — the closure-free loop is measurably faster on the
// per-access hot path and visits identical probe sequences.
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

// find descends to key's leaf, tracing one access per level, and reports
// whether the leaf holds key.
func (t *BPTree) find(key uint64, tr *Tracer) (*bpNode, bool) {
	n := t.root
	for !n.leaf {
		tr.Touch(n.addr, false)
		n = n.children[findChild(n.keys, key)]
	}
	tr.Touch(n.addr, false)
	_, ok := n.search(key)
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
		tr.Touch(n.addr, true)
	}
	return ok
}

// Scan reads up to count consecutive keys starting at key, tracing the
// descent and each leaf page touched. It returns the keys read.
func (t *BPTree) Scan(key uint64, count int, tr *Tracer) []uint64 {
	n := t.root
	for !n.leaf {
		tr.Touch(n.addr, false)
		n = n.children[findChild(n.keys, key)]
	}
	var out []uint64
	i, _ := n.search(key)
	tr.Touch(n.addr, false)
	for n != nil && len(out) < count {
		for ; i < n.numKeys() && len(out) < count; i++ {
			out = append(out, n.keyAt(i))
		}
		n = n.next
		i = 0
		if n != nil && len(out) < count {
			tr.Touch(n.addr, false)
		}
	}
	return out
}

// Insert adds key, or rewrites its row if present, tracing the path, leaf
// write, and any splits. An untraced key above the maximum appends to the
// tail leaf when that leaf has room: the descent would reach the same
// leaf and append at len(keys) without splitting, so ascending loads
// (every TATP and TPC-C table) build the same tree without walking it.
func (t *BPTree) Insert(key uint64, tr *Tracer) {
	if n := t.tail; tr == nil && len(n.keys) < t.fanout &&
		(len(n.keys) == 0 || n.keys[len(n.keys)-1] < key) {
		n.keys = append(n.keys, key)
		t.size++
		return
	}
	promoted, newChild := t.insert(t.root, key, tr)
	if newChild != nil {
		newRoot := t.newNode(false)
		newRoot.keys = append(newRoot.keys, promoted)
		newRoot.children = append(newRoot.children, t.root, newChild)
		t.root = newRoot
		t.height++
		tr.Touch(newRoot.addr, true)
	}
}

// insert descends recursively; on split it returns the promoted separator
// key and the new right sibling.
func (t *BPTree) insert(n *bpNode, key uint64, tr *Tracer) (uint64, *bpNode) {
	tr.Touch(n.addr, false)
	if n.leaf {
		i, ok := n.search(key)
		if ok {
			tr.Touch(n.addr, true)
			return 0, nil
		}
		// A strided leaf has no key array (len and cap 0), so this is
		// also where it unpacks.
		if len(n.keys) == cap(n.keys) {
			t.growLeaf(n)
		}
		n.keys = append(n.keys, 0)
		copy(n.keys[i+1:], n.keys[i:])
		n.keys[i] = key
		t.size++
		tr.Touch(n.addr, true)
		if len(n.keys) <= t.fanout {
			return 0, nil
		}
		return t.splitLeaf(n, tr)
	}
	ci := findChild(n.keys, key)
	promoted, newChild := t.insert(n.children[ci], key, tr)
	if newChild == nil {
		return 0, nil
	}
	n.keys = append(n.keys, 0)
	copy(n.keys[ci+1:], n.keys[ci:])
	n.keys[ci] = promoted
	n.children = append(n.children, nil)
	copy(n.children[ci+2:], n.children[ci+1:])
	n.children[ci+1] = newChild
	tr.Touch(n.addr, true)
	if len(n.keys) <= t.fanout {
		return 0, nil
	}
	return t.splitInternal(n, tr)
}

// splitLeaf moves the upper half of a full leaf to a new right sibling.
// TATP and TPC-C bulk-load every table in ascending key order, so inserts
// keep landing in the right half and never reach the left one again: the
// left half is frozen at its exact size, and the right half takes over
// the full-size array with its keys shifted to the front. A left half
// whose gaps alternate two values of at most maxStrideGap is strided
// (every TATP and TPC-C table is an arithmetic or period-2 progression),
// so it keeps no key array at all; any other gets an exact-size copy of
// its keys (append, unlike make, skips zeroing what it overwrites). A
// random insert into a frozen left half regrows it once, in growLeaf.
func (t *BPTree) splitLeaf(n *bpNode, tr *Tracer) (uint64, *bpNode) {
	mid := len(n.keys) / 2
	right := t.newNode(true)
	keys := n.keys
	if d0, d1, ok := strides(keys[:mid]); ok {
		n.keys, n.base, n.count, n.d0, n.d1 = nil, keys[0], uint16(mid), d0, d1
	} else {
		n.keys = append([]uint64(nil), keys[:mid]...)
	}
	right.keys = keys[:copy(keys, keys[mid:])]
	right.next = n.next
	n.next = right
	if t.tail == n {
		t.tail = right
	}
	tr.Touch(n.addr, true)
	tr.Touch(right.addr, true)
	return right.keys[0], right
}

// strides reports whether ascending keys fit the strided form: at least
// two and at most 0xffff of them, with every even gap d0 and every odd
// gap d1, both at most maxStrideGap. Two keys have one gap, taken as both.
func strides(keys []uint64) (d0, d1 uint16, ok bool) {
	if len(keys) < 2 || len(keys) > 0xffff {
		return 0, 0, false
	}
	g := [2]uint64{keys[1] - keys[0], keys[1] - keys[0]}
	if len(keys) > 2 {
		g[1] = keys[2] - keys[1]
	}
	if g[0] > maxStrideGap || g[1] > maxStrideGap {
		return 0, 0, false
	}
	for i := 3; i < len(keys); i++ {
		if keys[i]-keys[i-1] != g[(i-1)%2] {
			return 0, 0, false
		}
	}
	return uint16(g[0]), uint16(g[1]), true
}

func (t *BPTree) splitInternal(n *bpNode, tr *Tracer) (uint64, *bpNode) {
	mid := len(n.keys) / 2
	promoted := n.keys[mid]
	right := t.newNode(false)
	right.keys = append(right.keys, n.keys[mid+1:]...)
	right.children = append(right.children, n.children[mid+1:]...)
	n.keys = n.keys[:mid]
	n.children = n.children[:mid+1]
	tr.Touch(n.addr, true)
	tr.Touch(right.addr, true)
	return promoted, right
}

// CheckInvariants validates sortedness, fanout bounds, leaf-chain order
// and the strided form: a leaf only, no key array beside it, at least two
// keys, nonzero gaps, a last key within uint64, and a wide tail. It
// returns "" when consistent, and a message, never a panic, for a
// malformed node.
func (t *BPTree) CheckInvariants() string {
	if t.tail.count != 0 {
		return "tail leaf strided"
	}
	msg := t.check(t.root, nil, nil)
	if msg != "" {
		return msg
	}
	// Leaf chain must be globally sorted.
	n := t.root
	for !n.leaf {
		n = n.children[0]
	}
	prev := uint64(0)
	first := true
	for ; n != nil; n = n.next {
		for i := range n.numKeys() {
			k := n.keyAt(i)
			if !first && k <= prev {
				return "leaf chain out of order"
			}
			prev, first = k, false
		}
	}
	return ""
}

// checkStrided validates a strided leaf's count and gaps. The last key's
// offset from base is below 2^16 * 2^17, so keyAt's offset cannot wrap,
// but base plus it can.
func checkStrided(n *bpNode) string {
	switch {
	case !n.leaf:
		return "internal node strided"
	case n.keys != nil:
		return "strided leaf also holds keys"
	case n.count < 2:
		return "strided leaf holds fewer than 2 keys"
	case n.d0 == 0 || n.d1 == 0:
		return "strided leaf has a zero gap"
	}
	if last := n.keyAt(int(n.count)-1) - n.base; n.base > ^uint64(0)-last {
		return "strided leaf's last key past 2^64"
	}
	return ""
}

func (t *BPTree) check(n *bpNode, lo, hi *uint64) string {
	if n.count != 0 {
		if msg := checkStrided(n); msg != "" {
			return msg
		}
	}
	if n.numKeys() > t.fanout {
		return "node over fanout"
	}
	for i := 1; i < n.numKeys(); i++ {
		if n.keyAt(i-1) >= n.keyAt(i) {
			return "keys unsorted"
		}
	}
	for i := range n.numKeys() {
		k := n.keyAt(i)
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
	if len(n.children) != len(n.keys)+1 {
		return "internal children/keys mismatch"
	}
	for i, c := range n.children {
		var clo, chi *uint64
		if i > 0 {
			clo = &n.keys[i-1]
		} else {
			clo = lo
		}
		if i < len(n.keys) {
			chi = &n.keys[i]
		} else {
			chi = hi
		}
		if msg := t.check(c, clo, chi); msg != "" {
			return msg
		}
	}
	return ""
}
