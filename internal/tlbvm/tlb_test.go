package tlbvm

import (
	"testing"
	"testing/quick"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func TestTLBHitAfterInsert(t *testing.T) {
	tlb := NewTLB(DefaultTLBConfig())
	if _, hit := tlb.Lookup(42); hit {
		t.Fatal("hit on empty TLB")
	}
	tlb.Insert(42)
	lat, hit := tlb.Lookup(42)
	if !hit {
		t.Fatal("miss after insert")
	}
	if lat != DefaultTLBConfig().HitLatency {
		t.Fatalf("latency = %d", lat)
	}
	if _, hit := tlb.Lookup(43); hit {
		t.Fatal("hit on a page never inserted")
	}
}

func TestPageTableGeometry(t *testing.T) {
	pt := NewPageTableFanout(1<<20, 1000, 9) // 1M VPNs
	// Leaf level: 1M entries / 512 per page = 2048 pages; level 1: 4;
	// levels 2, 3: 1 each.
	if pt.TotalPages() != 2048+4+1+1 {
		t.Fatalf("total pages = %d, want 2054", pt.TotalPages())
	}
}

func TestWalkPagesRootToLeaf(t *testing.T) {
	pt := NewPageTableFanout(1<<20, 1000, 9)
	pages := pt.WalkPages(0)
	if len(pages) != 4 {
		t.Fatalf("walk touches %d pages, want 4", len(pages))
	}
	// Neighboring VPNs share all levels (same leaf page).
	a, b := pt.WalkPages(100), pt.WalkPages(101)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("adjacent VPNs diverge at level %d", i)
		}
	}
	// Distant VPNs differ at the leaf.
	c := pt.WalkPages(1 << 19)
	if c[3] == a[3] {
		t.Fatal("distant VPNs share a leaf page")
	}
}

func TestWalkPagesStayInRegion(t *testing.T) {
	pt := NewPageTableFanout(1<<16, 5000, 9)
	last := 5000 + mem.PageNum(pt.TotalPages())
	if err := quick.Check(func(v uint32) bool {
		for _, p := range pt.WalkPages(mem.PageNum(v)) {
			if p < 5000 || p >= last {
				return false
			}
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFlatWalkLatency(t *testing.T) {
	eng := sim.NewEngine()
	pt := NewPageTableFanout(1<<20, 0, 9)
	// Every table page costs the same 50 ns, as in the flat partition.
	w := NewWalker(pt, &slowBackend{eng: eng, fast: 50, slow: 50})
	var done sim.Time
	w.Walk(eng, 12345, func(at sim.Time) { done = at })
	eng.Run()
	// Four serialized levels at 50 ns each.
	if done != 200 {
		t.Fatalf("walk completed at %d, want 200", done)
	}
}

// slowBackend makes one specific page expensive, modeling a table page
// that must come from flash in the noDP configuration.
type slowBackend struct {
	eng      *sim.Engine
	slowPage mem.PageNum
	fast     int64
	slow     int64
}

func (b *slowBackend) AccessPT(p mem.PageNum, done func(at sim.Time)) {
	lat := b.fast
	if p == b.slowPage {
		lat = b.slow
	}
	at := b.eng.Now() + lat
	b.eng.At(at, func() { done(at) })
}

func TestColdTablePageDominatesWalk(t *testing.T) {
	eng := sim.NewEngine()
	pt := NewPageTableFanout(1<<20, 0, 9)
	leaf := pt.WalkPages(777)[3]
	w := NewWalker(pt, &slowBackend{eng: eng, slowPage: leaf, fast: 50, slow: 50_000})
	var done sim.Time
	w.Walk(eng, 777, func(at sim.Time) { done = at })
	eng.Run()
	if done < 50_000 {
		t.Fatalf("walk finished at %d despite flash-resident leaf", done)
	}
}

func TestShootdownScalesWithCores(t *testing.T) {
	m := DefaultShootdownModel()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	l16, l64 := m.Latency(16), m.Latency(64)
	if l64 <= l16 {
		t.Fatal("shootdown latency does not grow with cores")
	}
	// The paper cites >10 us shootdowns; at 16 cores we calibrate to
	// the same order.
	if l16 < 5_000 || l16 > 50_000 {
		t.Fatalf("16-core shootdown = %d ns, want ~10 us", l16)
	}
	if m.Latency(0) != m.Latency(1) {
		t.Fatal("core count below 1 should clamp")
	}
}

func TestShootdownValidate(t *testing.T) {
	if err := (ShootdownModel{BaseNs: -1}).Validate(); err == nil {
		t.Fatal("negative base accepted")
	}
}
