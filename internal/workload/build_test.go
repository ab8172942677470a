package workload

import (
	"fmt"
	stdslices "slices"
	"sort"
	"testing"

	"astriflash/internal/mem"
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
// interface call and a buffer per put. A tree walk that reaches a node
// twice fails tb.
type treeHasher struct {
	tb testing.TB
	h  *uint64
}

func newTreeHasher(tb testing.TB) treeHasher {
	h := uint64(14695981039346656037)
	return treeHasher{tb, &h}
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
// what capacity): bpSlabDiff compares that.
func (th treeHasher) tree(t *BPTree) {
	th.tb.Helper()
	th.put(t.size, uint64(t.height))
	reached := make(map[int32]bool)
	var walk func(ni int32)
	walk = func(ni int32) {
		if reached[ni] {
			th.tb.Fatalf("treeHasher: node %d reached twice", ni)
		}
		reached[ni] = true
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
		children := t.numKeys(n) + 1
		th.put(uint64(children), uint64(t.fanout+2))
		for i := range children {
			walk(t.child(n, i))
		}
	}
	walk(t.root)
}

// layer hashes a Masstree layer's tree, then each deeper layer in key
// order.
func (th treeHasher) layer(l *mtLayer) {
	th.tree(l.tree)
	for _, ni := range bpLeaves(th.tb, l.tree) {
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

// bpSlabDiff compares two trees' node slabs entry by entry and returns
// the first difference, or "": size, height, fanout, root and tail, and
// per slab index the node (page, leaf bit, next, which is a strided
// internal node's first child, and its strided form's base, count and
// gaps, or its slot) and a wide node's keys and children with their
// lengths and capacities. Equal slabs are equal trees, stored alike.
func bpSlabDiff(a, b *BPTree) string {
	switch {
	case a.size != b.size || a.height != b.height || a.fanout != b.fanout:
		return fmt.Sprintf("size/height/fanout %d/%d/%d vs %d/%d/%d", a.size, a.height, a.fanout, b.size, b.height, b.fanout)
	case a.root != b.root || a.tail != b.tail:
		return fmt.Sprintf("root/tail %d/%d vs %d/%d", a.root, a.tail, b.root, b.tail)
	case a.nodes != b.nodes || len(a.wide) != len(b.wide):
		return fmt.Sprintf("%d nodes, %d slots vs %d nodes, %d slots", a.nodes, len(a.wide), b.nodes, len(b.wide))
	}
	for i := range a.nodes {
		n, m := a.node(i), b.node(i)
		if *n != *m {
			return fmt.Sprintf("node %d: %+v vs %+v", i, *n, *m)
		}
		if n.count != 0 {
			continue
		}
		v, w := a.wide[n.base], b.wide[m.base]
		if cap(v.keys) != cap(w.keys) || cap(v.children) != cap(w.children) ||
			!stdslices.Equal(v.keys, w.keys) || !stdslices.Equal(v.children, w.children) {
			return fmt.Sprintf("node %d: keys %v (cap %d), children %v (cap %d) vs keys %v (cap %d), children %v (cap %d)",
				i, v.keys, cap(v.keys), v.children, cap(v.children), w.keys, cap(w.keys), w.children, cap(w.children))
		}
	}
	return ""
}

// newTATPPerKey is the TATP build as one Insert and one payload draw per
// row, in subscriber order: the reference newTATP's batched load and
// single Skip must match bit for bit.
func newTATPPerKey(cfg Config, subs uint64) *TATP {
	arena := mem.NewArena(0, cfg.DatasetBytes)
	t := &TATP{
		cfg:         cfg,
		arena:       arena,
		subscribers: NewBPTree(arena, 256),
		accessInfo:  NewBPTree(arena, 256),
		specialFac:  NewBPTree(arena, 256),
	}
	rng := newRNG(cfg, 0x7a79)
	for s := uint64(0); s < subs; s++ {
		rng.Uint64()
		t.subscribers.Insert(s, nil)
		rng.Uint64()
		t.accessInfo.Insert(s*4, nil)
		rng.Uint64()
		t.accessInfo.Insert(s*4+1, nil)
		if s%2 == 0 {
			rng.Uint64()
			t.specialFac.Insert(s, nil)
		}
	}
	t.zipf = newSampler(cfg, rng, subs, hotPageBudget(cfg)*20)
	t.rng = rng
	return t
}

// tatpNodes returns the node counts of a TATP's three trees.
func tatpNodes(t *TATP) [3]int32 {
	return [3]int32{t.subscribers.nodes, t.accessInfo.nodes, t.specialFac.nodes}
}

// TestTATPBatchedLoadMatchesPerKey builds TATP with its batched load and
// skipped draws and with newTATPPerKey, and requires equal node slabs,
// consistent trees and the same next 2000 jobs, step for step. NewTATP's
// subscriber count is always even (30 per dataset page, at least 1024),
// so the minimum dataset goes through NewTATP and the odd counts through
// newTATP: 2001, whose last subscriber splits no tree, and 2305, whose
// last subscriber splits all three.
func TestTATPBatchedLoadMatchesPerKey(t *testing.T) {
	minCfg := buildConfig()
	minCfg.DatasetBytes = MinDatasetBytes("tatp")
	cfg := buildConfig()
	cfg.DatasetBytes = 1 << 20
	cases := []struct {
		name    string
		cfg     Config
		subs    uint64
		batched func() *TATP
		split   bool
	}{
		{"min-dataset", minCfg, 1024, func() *TATP { return NewTATP(minCfg) }, false},
		{"odd", cfg, 2001, func() *TATP { return newTATP(cfg, 2001) }, false},
		{"last-splits", cfg, 2305, func() *TATP { return newTATP(cfg, 2305) }, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.batched(), newTATPPerKey(c.cfg, c.subs)
			before, after := tatpNodes(newTATPPerKey(c.cfg, c.subs-1)), tatpNodes(want)
			for i := range before {
				if split := before[i] != after[i]; split != c.split {
					t.Fatalf("last subscriber splits tree %d: %v, want %v", i, split, c.split)
				}
			}
			for _, tree := range [][2]*BPTree{{got.subscribers, want.subscribers},
				{got.accessInfo, want.accessInfo}, {got.specialFac, want.specialFac}} {
				if msg := tree[0].CheckInvariants(); msg != "" {
					t.Fatal(msg)
				}
				if msg := bpSlabDiff(tree[0], tree[1]); msg != "" {
					t.Fatalf("batched tree differs from the per-key one: %s", msg)
				}
			}
			var a, b []Step
			for j := range 2000 {
				a, b = got.NewJobSteps(a), want.NewJobSteps(b)
				if !stdslices.Equal(a, b) {
					t.Fatalf("job %d: batched build's steps %v, per-key %v", j, a, b)
				}
			}
		})
	}
}

// TestTATPBatchIsLargestFit checks tatpBatch against a search for the
// largest k whose rows fit every tail, counting the even subscribers in
// [s, s+k) one by one. The loader alone cannot catch a bound that is one
// too large: in a TATP build the special-facility bound never falls
// below the subscribers' one, so such a bound batches the same runs.
func TestTATPBatchIsLargestFit(t *testing.T) {
	for s := uint64(0); s < 2; s++ {
		for left := uint64(0); left < 12; left++ {
			for sub := range 10 {
				for acc := range 12 {
					for fac := range 6 {
						want := uint64(0)
						for k := uint64(1); k <= left; k++ {
							evens := 0
							for i := s; i < s+k; i++ {
								if i%2 == 0 {
									evens++
								}
							}
							if k > uint64(sub) || 2*k > uint64(acc) || evens > fac {
								break
							}
							want = k
						}
						if got := tatpBatch(s, left, sub, acc, fac); got != want {
							t.Fatalf("tatpBatch(%d, %d, %d, %d, %d) = %d, want %d", s, left, sub, acc, fac, got, want)
						}
					}
				}
			}
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
		th := newTreeHasher(t)
		c.hash(th, w)
		th.jobs(w, 2000)
		// Hash the trees again: TPC-C's jobs insert orders and order lines.
		c.hash(th, w)
		if got := th.sum(); got != c.want {
			t.Errorf("%s: tree hash %#016x, want %#016x", c.name, got, c.want)
		}
	}
}

// TestTATPBuildAllocs pins the heap allocations of the 32 MiB tatp build
// that `make bench-build` times: node slab chunks, the arrays of internal
// nodes that stay wide, the side tables and the sampler. Its leaves
// allocate nothing, since every TATP table strides from its first key,
// and most internal nodes freeze strided, so a build whose leaves or
// frozen internal nodes take arrays again fails here without a timing
// gate. A change that moves the count on purpose updates the pin.
func TestTATPBuildAllocs(t *testing.T) {
	const want = 74
	cfg := buildConfig()
	if got := testing.AllocsPerRun(3, func() { builtWorkload = NewTATP(cfg) }); got != want {
		t.Errorf("a 32 MiB tatp build made %.0f allocations, pinned %d", got, want)
	}
}

// builtWorkload keeps BenchmarkWorkloadBuild's result reachable.
var builtWorkload Workload

// BenchmarkWorkloadBuild times constructing each registered workload at
// 32 MiB, and tatp at the benchmark's 512 MiB: `make bench-build`.
func BenchmarkWorkloadBuild(b *testing.B) {
	var names []string
	for name := range builders {
		names = append(names, name)
	}
	sort.Strings(names)
	build := func(name string, cfg Config) func(b *testing.B) {
		return func(b *testing.B) {
			b.ReportAllocs()
			for range b.N {
				w, err := New(name, cfg)
				if err != nil {
					b.Fatal(err)
				}
				builtWorkload = w
			}
		}
	}
	for _, name := range names {
		b.Run(name, build(name, buildConfig()))
	}
	cfg := buildConfig()
	cfg.DatasetBytes = 512 << 20
	b.Run("tatp-512MiB", build("tatp", cfg))
}

// TestTATPInternalNodesStride builds tatp at 32 MiB and at the
// benchmark's 512 MiB, logs how many internal nodes of its three trees
// are strided, and requires at least 95% of them at 512 MiB. Each tree's
// separators are arithmetic at every level; what stays wide is every
// node above level 1, whose children sit between runs of leaves in the
// slab, each tree's first level-1 node, whose children straddle the
// first root, and the rightmost level-1 node, which keeps the split-size
// arrays ascending loads push into.
func TestTATPInternalNodesStride(t *testing.T) {
	for _, mib := range []uint64{32, 512} {
		cfg := buildConfig()
		cfg.DatasetBytes = mib << 20
		tp := NewTATP(cfg)
		var internal, strided int
		for _, tree := range []*BPTree{tp.subscribers, tp.accessInfo, tp.specialFac} {
			if msg := tree.CheckInvariants(); msg != "" {
				t.Fatal(msg)
			}
			for ni := range tree.nodes {
				if n := tree.node(ni); !n.leaf {
					internal++
					if n.count != 0 {
						strided++
					}
				}
			}
		}
		t.Logf("%d MiB: %d of %d internal nodes strided (%.1f%%)", mib, strided, internal, 100*float64(strided)/float64(internal))
		if mib == 512 && 100*strided < 95*internal {
			t.Errorf("%d MiB: %d of %d internal nodes strided, want at least 95%%", mib, strided, internal)
		}
	}
}
