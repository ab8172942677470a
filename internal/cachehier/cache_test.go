package cachehier

import (
	"testing"
	"testing/quick"

	"astriflash/internal/mem"
)

func TestCacheHitAfterInsert(t *testing.T) {
	c := NewCache(4, 2)
	if c.Lookup(100, false) {
		t.Fatal("hit on empty cache")
	}
	c.Insert(100, false)
	if !c.Lookup(100, false) {
		t.Fatal("miss after insert")
	}
	if c.Lookup(101, false) || c.Contains(101) {
		t.Fatal("a miss filled its key")
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewCache(1, 2) // one set, two ways: simplest LRU observatory
	c.Insert(1, false)
	c.Insert(2, false)
	c.Lookup(1, false) // 1 is now MRU
	v, evicted := c.Insert(3, false)
	if !evicted || v.Key != 2 {
		t.Fatalf("expected LRU victim 2, got %+v evicted=%v", v, evicted)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Fatal("wrong residents after eviction")
	}
}

func TestCacheDirtyVictim(t *testing.T) {
	c := NewCache(1, 1)
	c.Insert(5, false)
	c.Lookup(5, true) // write hit marks dirty
	v, evicted := c.Insert(6, false)
	if !evicted || !v.Dirty || v.Key != 5 {
		t.Fatalf("dirty eviction lost: %+v", v)
	}
}

func TestCacheReinsertRefreshes(t *testing.T) {
	c := NewCache(1, 2)
	c.Insert(1, false)
	c.Insert(2, false)
	if _, evicted := c.Insert(1, true); evicted {
		t.Fatal("reinsert evicted")
	}
	// 2 is now LRU.
	v, evicted := c.Insert(3, false)
	if !evicted || v.Key != 2 {
		t.Fatalf("victim = %+v, want key 2", v)
	}
	// Dirtiness of refreshed key 1 must persist.
	v, _ = c.Insert(4, false)
	if v.Key != 1 || !v.Dirty {
		t.Fatalf("refresh lost dirty bit: %+v", v)
	}
}

// resident counts the valid ways of c.
func resident(c *Cache) int {
	n := 0
	for _, e := range c.entries {
		if e.key != freeKey {
			n++
		}
	}
	return n
}

func TestCacheNeverExceedsCapacity(t *testing.T) {
	if err := quick.Check(func(keys []uint16) bool {
		c := NewCache(8, 2)
		for _, k := range keys {
			c.Insert(uint64(k), false)
		}
		return resident(c) <= c.sets*c.ways
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInsertThenContains(t *testing.T) {
	if err := quick.Check(func(k uint64) bool {
		c := NewCache(16, 4)
		c.Insert(k, false)
		return c.Contains(k)
	}, nil); err != nil {
		t.Fatal(err)
	}
}

// TestCacheFreeWayKey checks that Insert rejects the free-way marker
// ^uint64(0) as a key.
func TestCacheFreeWayKey(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert of the free-way key did not panic")
		}
	}()
	NewCache(1, 4).Insert(freeKey, false)
}

// refWay is one way of refCache, with valid and dirty as flags of their
// own.
type refWay struct {
	key, lru     uint64
	valid, dirty bool
}

// refCache is a reference set-associative LRU cache with explicit valid
// and dirty flags and a stamp that steps by 1.
type refCache struct {
	c     *Cache // for setOf
	ways  [][]refWay
	stamp uint64
}

func (r *refCache) find(key uint64) (*refWay, []refWay) {
	s := r.ways[r.c.setOf(key)]
	for w := range s {
		if s[w].valid && s[w].key == key {
			return &s[w], s
		}
	}
	return nil, s
}

func (r *refCache) lookup(key uint64, write bool) bool {
	w, _ := r.find(key)
	if w != nil {
		r.stamp++
		w.lru, w.dirty = r.stamp, w.dirty || write
	}
	return w != nil
}

func (r *refCache) insert(key uint64, dirty bool) (Victim, bool) {
	r.stamp++
	w, s := r.find(key)
	if w != nil {
		w.lru, w.dirty = r.stamp, w.dirty || dirty
		return Victim{}, false
	}
	for i := range s {
		if !s[i].valid {
			s[i] = refWay{key, r.stamp, true, dirty}
			return Victim{}, false
		}
	}
	lru := 0
	for i := range s {
		if s[i].lru < s[lru].lru {
			lru = i
		}
	}
	v := Victim{Key: s[lru].key, Dirty: s[lru].dirty}
	s[lru] = refWay{key, r.stamp, true, dirty}
	return v, true
}

// TestCacheMatchesReference drives Cache and refCache through the same
// random lookups, inserts (clean and dirty) and membership probes over a
// key space a few times the capacity, and requires the same hits,
// victims, dirty bits and residency after every op.
func TestCacheMatchesReference(t *testing.T) {
	if err := quick.Check(func(ops []uint16) bool {
		c := NewCache(4, 4)
		ref := &refCache{c: c, ways: make([][]refWay, 4)}
		for i := range ref.ways {
			ref.ways[i] = make([]refWay, 4)
		}
		for _, op := range ops {
			key, write := uint64(op>>3)%48, op&4 != 0
			switch op % 4 {
			case 0, 1:
				if c.Lookup(key, write) != ref.lookup(key, write) {
					return false
				}
			case 2:
				v, ev := c.Insert(key, write)
				if rv, rev := ref.insert(key, write); v != rv || ev != rev {
					return false
				}
			case 3:
				if w, _ := ref.find(key); c.Contains(key) != (w != nil) {
					return false
				}
			}
			n := 0
			for _, s := range ref.ways {
				for _, w := range s {
					if w.valid {
						n++
					}
				}
			}
			if resident(c) != n {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCacheInvalidGeometryPanics(t *testing.T) {
	for _, g := range [][2]int{{0, 1}, {1, 0}, {3, 2}} {
		g := g
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("geometry %v did not panic", g)
				}
			}()
			NewCache(g[0], g[1])
		}()
	}
}

func TestHierarchyAccessAndFill(t *testing.T) {
	h := NewHierarchy(DefaultHierConfig())
	a := mem.Access{Addr: 0x1000}
	r := h.Access(a)
	if !r.ToDRAM {
		t.Fatal("cold access should go to DRAM")
	}
	coldLat := r.Latency
	h.Fill(a)
	r = h.Access(a)
	if r.ToDRAM {
		t.Fatal("filled block should hit on chip")
	}
	if r.Latency >= coldLat {
		t.Fatalf("hit latency %d not below miss path %d", r.Latency, coldLat)
	}
}

func TestHierarchyWritebackSink(t *testing.T) {
	cfg := DefaultHierConfig()
	cfg.LLCSets, cfg.LLCWays = 1, 1
	h := NewHierarchy(cfg)
	var wb []uint64
	h.WritebackSink = func(b uint64) { wb = append(wb, b) }
	h.Fill(mem.Access{Addr: 0x40, Write: true}) // dirty
	h.Fill(mem.Access{Addr: 0x80})              // evicts dirty block 1
	if len(wb) != 1 || wb[0] != 1 {
		t.Fatalf("writebacks = %v, want [1]", wb)
	}
}
