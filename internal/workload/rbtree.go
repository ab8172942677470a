package workload

import (
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("rbt", func(cfg Config) Workload { return NewRBT(cfg) }) }

// rbColor is a node color.
type rbColor bool

const (
	red   rbColor = true
	black rbColor = false
)

// rbNode is one tree node. Each node owns a 64 B arena slot, so a root-
// to-leaf traversal emits the pointer-chasing page-access pattern the
// paper's RBT microbenchmark measures.
type rbNode struct {
	key                 uint64
	val                 uint64
	addr                mem.Addr
	left, right, parent *rbNode
	color               rbColor
}

// RBTree is a classic red-black tree with arena-addressed nodes and
// traced traversals.
type RBTree struct {
	root  *rbNode
	arena *mem.Arena
	size  uint64
}

// NewRBTree returns an empty tree over the given arena.
func NewRBTree(arena *mem.Arena) *RBTree { return &RBTree{arena: arena} }

// Size returns the number of keys.
func (t *RBTree) Size() uint64 { return t.size }

// Lookup searches for key, tracing every node it touches. It returns the
// value and whether the key exists.
func (t *RBTree) Lookup(key uint64, tr *Tracer) (uint64, bool) {
	n := t.root
	for n != nil {
		tr.Touch(n.addr, false)
		switch {
		case key == n.key:
			return n.val, true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return 0, false
}

// Update overwrites the value for an existing key, tracing the search
// path and the final write. It reports whether the key was found.
func (t *RBTree) Update(key, val uint64, tr *Tracer) bool {
	n := t.root
	for n != nil {
		tr.Touch(n.addr, false)
		switch {
		case key == n.key:
			tr.Touch(n.addr, true)
			n.val = val
			return true
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	return false
}

// Insert adds key/val (or overwrites), tracing the search path, the new
// node write, and every node the rebalancing recolors or rotates.
func (t *RBTree) Insert(key, val uint64, tr *Tracer) {
	var parent *rbNode
	n := t.root
	for n != nil {
		tr.Touch(n.addr, false)
		parent = n
		switch {
		case key == n.key:
			tr.Touch(n.addr, true)
			n.val = val
			return
		case key < n.key:
			n = n.left
		default:
			n = n.right
		}
	}
	node := &rbNode{key: key, val: val, color: red, parent: parent,
		addr: t.arena.Alloc(64, 64)}
	tr.Touch(node.addr, true)
	if parent == nil {
		t.root = node
	} else if key < parent.key {
		parent.left = node
		tr.Touch(parent.addr, true)
	} else {
		parent.right = node
		tr.Touch(parent.addr, true)
	}
	t.size++
	t.fixInsert(node, tr)
}

func (t *RBTree) rotateLeft(x *rbNode, tr *Tracer) {
	y := x.right
	tr.Touch(x.addr, true)
	tr.Touch(y.addr, true)
	x.right = y.left
	if y.left != nil {
		y.left.parent = x
		tr.Touch(y.left.addr, true)
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.left:
		x.parent.left = y
		tr.Touch(x.parent.addr, true)
	default:
		x.parent.right = y
		tr.Touch(x.parent.addr, true)
	}
	y.left = x
	x.parent = y
}

func (t *RBTree) rotateRight(x *rbNode, tr *Tracer) {
	y := x.left
	tr.Touch(x.addr, true)
	tr.Touch(y.addr, true)
	x.left = y.right
	if y.right != nil {
		y.right.parent = x
		tr.Touch(y.right.addr, true)
	}
	y.parent = x.parent
	switch {
	case x.parent == nil:
		t.root = y
	case x == x.parent.right:
		x.parent.right = y
		tr.Touch(x.parent.addr, true)
	default:
		x.parent.left = y
		tr.Touch(x.parent.addr, true)
	}
	y.right = x
	x.parent = y
}

func (t *RBTree) fixInsert(z *rbNode, tr *Tracer) {
	for z.parent != nil && z.parent.color == red {
		gp := z.parent.parent
		if z.parent == gp.left {
			uncle := gp.right
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				tr.Touch(z.parent.addr, true)
				tr.Touch(uncle.addr, true)
				tr.Touch(gp.addr, true)
				z = gp
			} else {
				if z == z.parent.right {
					z = z.parent
					t.rotateLeft(z, tr)
				}
				z.parent.color = black
				gp.color = red
				tr.Touch(z.parent.addr, true)
				tr.Touch(gp.addr, true)
				t.rotateRight(gp, tr)
			}
		} else {
			uncle := gp.left
			if uncle != nil && uncle.color == red {
				z.parent.color = black
				uncle.color = black
				gp.color = red
				tr.Touch(z.parent.addr, true)
				tr.Touch(uncle.addr, true)
				tr.Touch(gp.addr, true)
				z = gp
			} else {
				if z == z.parent.left {
					z = z.parent
					t.rotateRight(z, tr)
				}
				z.parent.color = black
				gp.color = red
				tr.Touch(z.parent.addr, true)
				tr.Touch(gp.addr, true)
				t.rotateLeft(gp, tr)
			}
		}
	}
	if t.root.color != black {
		t.root.color = black
		tr.Touch(t.root.addr, true)
	}
}

// CheckInvariants validates the red-black properties: root is black, no
// red node has a red child, and every root-to-leaf path has the same
// black height. It returns "" when valid.
func (t *RBTree) CheckInvariants() string {
	if t.root == nil {
		return ""
	}
	if t.root.color != black {
		return "root is red"
	}
	_, msg := checkRB(t.root)
	return msg
}

func checkRB(n *rbNode) (blackHeight int, msg string) {
	if n == nil {
		return 1, ""
	}
	if n.color == red {
		if (n.left != nil && n.left.color == red) || (n.right != nil && n.right.color == red) {
			return 0, "red node with red child"
		}
	}
	lh, m := checkRB(n.left)
	if m != "" {
		return 0, m
	}
	rh, m := checkRB(n.right)
	if m != "" {
		return 0, m
	}
	if lh != rh {
		return 0, "black height mismatch"
	}
	if n.left != nil && n.left.key >= n.key {
		return 0, "BST order violated on left"
	}
	if n.right != nil && n.right.key <= n.key {
		return 0, "BST order violated on right"
	}
	h := lh
	if n.color == black {
		h++
	}
	return h, ""
}

// RBTWorkload drives the RBT microbenchmark: lookups with a small insert
// and update mix, Zipfian over the key space.
type RBTWorkload struct {
	cfg     Config
	tree    *RBTree
	arena   *mem.Arena
	keys    uint64
	zipf    sampler
	rng     *sim.RNG
	nextKey uint64
	jobTr   Tracer
}

// NewRBT builds a tree filling roughly the configured dataset (64 B per
// node).
func NewRBT(cfg Config) *RBTWorkload {
	// Leave 10% slack in the arena for inserts during the run.
	keys := cfg.DatasetBytes / 64 * 9 / 10
	arena := mem.NewArena(0, cfg.DatasetBytes)
	tree := NewRBTree(arena)
	rng := newRNG(cfg, 0x2b7)
	// Insert keys in scrambled order so the tree is not degenerate on
	// the build path and pages mix key ranges.
	for i := uint64(0); i < keys; i++ {
		k := scrambleKey(i)
		tree.Insert(k, i, nil)
	}
	return &RBTWorkload{
		cfg:   cfg,
		tree:  tree,
		arena: arena,
		keys:  keys,
		// Lookups chase scattered interior nodes: each hot target pins its
		// ancestor pages, so the hot set spends ~3 pages per item.
		zipf:    newSampler(cfg, rng, keys, hotPageBudget(cfg)/4+1),
		rng:     rng,
		nextKey: keys,
	}
}

// scrambleKey spreads sequential build indices over the key space.
func scrambleKey(i uint64) uint64 {
	x := i * 0x9e3779b97f4a7c15
	x ^= x >> 32
	return x
}

// Name implements Workload.
func (w *RBTWorkload) Name() string { return "rbt" }

// DatasetPages implements Workload.
func (w *RBTWorkload) DatasetPages() uint64 { return w.arena.Pages() }

// NewJobSteps performs OpsPerJob operations: mostly lookups, WriteFraction
// updates.
// The trace is written into buf.
func (w *RBTWorkload) NewJobSteps(buf []Step) []Step {
	w.jobTr.Reset(w.cfg.ComputePerAccessNs, buf)
	tr := &w.jobTr
	for op := 0; op < w.cfg.OpsPerJob; op++ {
		key := scrambleKey(w.zipf.Next())
		if w.rng.Float64() < w.cfg.WriteFraction {
			w.tree.Update(key, w.rng.Uint64(), tr)
		} else {
			w.tree.Lookup(key, tr)
		}
	}
	return tr.Take()
}
