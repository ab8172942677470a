package workload

import (
	"sort"
	"testing"
)

// buildConfig is the 32 MiB, default-seed dataset the build fixture and
// benchmark use.
func buildConfig() Config {
	cfg := DefaultConfig()
	cfg.DatasetBytes = 32 << 20
	return cfg
}

// treeHasher is FNV-1a 64 (hash/fnv's New64a) over the little-endian
// bytes of each value put, computed in place: hash.Hash64's Write costs an
// interface call and a buffer per put, and FuzzBPTree hashes two trees
// after every op.
type treeHasher struct{ h *uint64 }

func newTreeHasher() treeHasher {
	h := uint64(14695981039346656037)
	return treeHasher{&h}
}

func (th treeHasher) put(xs ...uint64) {
	h := *th.h
	for _, x := range xs {
		for range 8 {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	*th.h = h
}

func (th treeHasher) sum() uint64 { return *th.h }

// tree hashes every node of t depth-first: arena address, leaf bit,
// number of keys and the keys, and internal nodes' children. It hashes
// the logical keys, not how a node stores them (strided or wide, and at
// what capacity): storage hashes that.
func (th treeHasher) tree(t *BPTree) {
	th.put(t.size, uint64(t.height))
	var walk func(ni int32)
	walk = func(ni int32) {
		n := t.node(ni)
		leaf := uint64(0)
		if n.leaf {
			leaf = 1
		}
		th.put(uint64(n.addr()), leaf, uint64(t.numKeys(n)))
		for i := range t.numKeys(n) {
			th.put(t.keyAt(n, i))
		}
		if n.leaf {
			return
		}
		// fanout+2 stands where the hashes were recorded with the child
		// array's capacity, which was fanout+2 for every internal node
		// before splits froze left halves at exact size.
		children := t.wide[n.base].children
		th.put(uint64(len(children)), uint64(t.fanout+2))
		for _, c := range children {
			walk(c)
		}
	}
	walk(t.root)
}

// storage hashes how each node of t stores its keys, in slab order: a
// strided leaf's count and gaps, or a wide node's slot and the lengths
// and capacities of its arrays.
func (th treeHasher) storage(t *BPTree) {
	for i := range t.nodes {
		if n := t.node(i); n.count != 0 {
			th.put(1, uint64(n.count), uint64(n.d0), uint64(n.d1))
		} else {
			w := t.wide[n.base]
			th.put(0, n.base, uint64(len(w.keys)), uint64(cap(w.keys)), uint64(len(w.children)), uint64(cap(w.children)))
		}
	}
}

// layer hashes a Masstree layer's tree, then each deeper layer in key
// order.
func (th treeHasher) layer(l *mtLayer) {
	th.tree(l.tree)
	for _, ni := range bpLeaves(l.tree) {
		n := l.tree.node(ni)
		for i := range l.tree.numKeys(n) {
			k := l.tree.keyAt(n, i)
			if next, ok := l.next[k]; ok {
				th.put(k)
				th.layer(next)
			}
		}
	}
}

// jobs hashes the step traces of the workload's next n jobs, which walk
// (and, for TPC-C, grow) the built trees.
func (th treeHasher) jobs(w Workload, n int) {
	var buf []Step
	for range n {
		buf = w.(StepReuser).NewJobSteps(buf)
		th.put(uint64(len(buf)))
		for _, s := range buf {
			write := uint64(0)
			if s.Access.Write {
				write = 1
			}
			th.put(uint64(s.ComputeNs), uint64(s.Access.Addr), write)
		}
	}
}

// TestBuiltTreesMatchParent pins the exact B+trees the tatp, tpcc, silo
// and masstree builds produce, node by node, and the traces of the first
// jobs that run over them. The hashes were recorded, with this hasher,
// before frozen leaves were stored compactly; a build that changes any
// node's page, shape or keys, or any traced touch, moves them. How a leaf
// stores its keys does not: the storage rule has its own tests.
func TestBuiltTreesMatchParent(t *testing.T) {
	masstreeCfg := buildConfig()
	masstreeCfg.DatasetBytes = MinDatasetBytes("masstree")
	cases := []struct {
		name string
		cfg  Config
		hash func(th treeHasher, w Workload)
		want uint64
	}{
		{"tatp", buildConfig(), func(th treeHasher, w Workload) {
			tp := w.(*TATP)
			th.tree(tp.subscribers)
			th.tree(tp.accessInfo)
			th.tree(tp.specialFac)
		}, 0x15ff24629fd45d76},
		{"tpcc", buildConfig(), func(th treeHasher, w Workload) {
			tp := w.(*TPCC)
			for _, tree := range []*BPTree{tp.warehouse, tp.district, tp.customer,
				tp.item, tp.stock, tp.orders, tp.orderLines} {
				th.tree(tree)
			}
		}, 0xdef00dd4f2eed4fa},
		{"silo", smallConfig(), func(th treeHasher, w Workload) {
			th.tree(w.(*SiloWorkload).db.index)
		}, 0xb458a6d3622118e1},
		{"masstree", masstreeCfg, func(th treeHasher, w Workload) {
			th.layer(w.(*MasstreeWorkload).trie.root)
		}, 0x8cbc182f3397586c},
	}
	for _, c := range cases {
		w, err := New(c.name, c.cfg)
		if err != nil {
			t.Fatal(err)
		}
		th := newTreeHasher()
		c.hash(th, w)
		th.jobs(w, 2000)
		// Hash the trees again: TPC-C's jobs insert orders and order lines.
		c.hash(th, w)
		if got := th.sum(); got != c.want {
			t.Errorf("%s: tree hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// builtWorkload keeps BenchmarkWorkloadBuild's result reachable.
var builtWorkload Workload

// BenchmarkWorkloadBuild times constructing each registered workload at
// 32 MiB: `make bench-build`.
func BenchmarkWorkloadBuild(b *testing.B) {
	var names []string
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				w, err := New(name, buildConfig())
				if err != nil {
					b.Fatal(err)
				}
				builtWorkload = w
			}
		})
	}
}
