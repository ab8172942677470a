package dramcache

import (
	"testing"

	"astriflash/internal/dram"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// touchTwin is one of FuzzTouchLanes's two caches, with its own engine
// and devices.
type touchTwin struct {
	eng *sim.Engine
	c   *Cache
}

// newTouchTwin builds a 32-page cache of 8 sets by 4 ways whose every
// latency is even: DRAM timings, controller costs and the flash
// device's. Operations run at even instants, so every cache event does
// too, and a refresh at an odd instant never ties with one.
func newTouchTwin(policy uint8) touchTwin {
	eng := sim.NewEngine()
	timing := dram.Timing{TRCD: 14, TCAS: 14, TRP: 14, TBurst: 4, TREFI: 7_800, TRFC: 350}
	dev := dram.NewDevice(timing, dram.DefaultGeometry())
	fl := flash.NewDevice(eng, flash.DefaultConfig())
	cfg := DefaultConfig(32)
	cfg.Ways = 4
	cfg.FCOpNs, cfg.BCOpNs = 2, 4
	cfg.Replacement = Replacement(policy % 3)
	if policy&4 != 0 {
		cfg.Admission = AdmissionConfig{Policy: "hit-economics", RegionPages: 2, BypassPages: 3}
	}
	return touchTwin{eng: eng, c: New(eng, cfg, dev, fl)}
}

// effective returns c's lines and ring entries with every buffered
// refresh before now applied to copies, leaving c untouched: the state
// the cache's next reader of recency will see.
func effective(c *Cache) ([]line, []ringEntry) {
	lines := append([]line(nil), c.lines...)
	var ring []ringEntry
	if c.ring != nil {
		ring = append(ring, c.ring.entries...)
	}
	now := c.eng.Now()
	for _, l := range c.lanes {
		for _, tc := range l.buf[l.head:] {
			if tc.at >= now {
				break
			}
			set := c.setOf(tc.page)
			found := false
			for w := set * c.cfg.Ways; w < (set+1)*c.cfg.Ways; w++ {
				if lines[w].valid && lines[w].page == tc.page {
					lines[w].lru, lines[w].reused = max(lines[w].lru, tc.at), true
					found = true
				}
			}
			if !found && c.ring != nil {
				if i := c.ring.lookup(tc.page); i >= 0 {
					ring[i].stamp = max(ring[i].stamp, tc.at)
				}
			}
		}
	}
	return lines, ring
}

// FuzzTouchLanes checks that buffering on-chip hits' recency refreshes
// (TouchAt, applied by the cache's readers and by ApplyLane) leaves the
// cache exactly where applying each refresh as an engine event at its
// instant does. One random stream of operations drives two caches: DRAM
// cache hits and misses (reads and writes), pins and unpins, refreshes
// on three lanes up to ~65 µs ahead of now, lane applications and time
// jumps past flash reads, so misses install, evict and, under
// hit-economics (policy bit 2), land in and overflow a 3-page bypass
// ring. The reference cache takes each refresh as an event; the other
// buffers it. After every operation, every line's page, validity,
// dirtiness, reuse, pins and stamps, and every ring entry, must match,
// with the buffered cache read through its pending refreshes, and
// CheckInvariants must pass. Refreshes sit at odd instants and all else
// at even ones (newTouchTwin), because same-instant order is not
// modelled.
func FuzzTouchLanes(f *testing.F) {
	f.Add(uint8(0), []byte{0, 1, 0, 0, 9, 0, 7, 0, 40, 5, 1, 3, 5, 41, 9, 0, 17, 0, 7, 0, 60, 6, 0, 0, 0, 1, 0})
	f.Add(uint8(4), []byte{0, 2, 0, 0, 4, 0, 1, 6, 0, 7, 0, 80, 5, 2, 2, 5, 44, 9, 0, 10, 0, 0, 12, 0, 7, 0, 90, 5, 4, 1, 6, 2, 0})
	f.Add(uint8(1), []byte{2, 3, 1, 3, 3, 0, 7, 0, 50, 5, 43, 8, 0, 11, 0, 4, 3, 0, 0, 19, 1, 7, 0, 70})
	f.Add(uint8(6), []byte{0, 8, 0, 0, 16, 0, 7, 0, 120, 5, 8, 30, 5, 48, 20, 0, 24, 0, 0, 32, 0, 7, 0, 200, 6, 1, 0})
	// A refresh buffered ahead of an eviction in its set: without the
	// flush in prepareVictim the victim is chosen on a stale stamp.
	f.Add(uint8(11), []byte("0\x8f00800000'0000000707000%0\xf50000000b00000000000z070A0\"07000"))
	f.Fuzz(func(t *testing.T, policy uint8, ops []byte) {
		ref, buf := newTouchTwin(policy), newTouchTwin(policy)
		const lanes, pages = 3, 40
		var last [lanes]sim.Time
		pins := map[mem.PageNum]int{}
		var now sim.Time
		for i := 0; i+2 < len(ops); i += 3 {
			kind, arg, dt := ops[i]%8, ops[i+1], sim.Time(ops[i+2])
			p := mem.PageNum(arg % pages)
			lane := int(arg/pages) % lanes
			if kind == 7 {
				now += 2 * dt * 512
			} else {
				now += 2 * (dt % 16)
			}
			ref.eng.RunUntil(now)
			buf.eng.RunUntil(now)
			switch kind {
			case 0, 1, 2:
				a := mem.Access{Addr: mem.PageBase(p), Write: kind == 2}
				if r, b := ref.c.AccessSync(a), buf.c.AccessSync(a); r != b {
					t.Fatalf("op %d: access %v: reference %+v, buffered %+v", i, a, r, b)
				}
			case 3:
				if pins[p] < 3 {
					pins[p]++
					ref.c.Pin(p)
					buf.c.Pin(p)
				}
			case 4:
				if pins[p] > 0 {
					pins[p]--
					ref.c.Unpin(p)
					buf.c.Unpin(p)
				}
			case 5:
				at := max(now+1+2*dt*128, last[lane])
				last[lane] = at
				rc := ref.c
				ref.eng.At(at, func() { rc.refresh(p, at) })
				buf.c.TouchAt(lane, p, at)
			case 6:
				lane = int(arg) % lanes
				buf.c.ApplyLane(lane)
				if lane < len(buf.c.lanes) {
					l := buf.c.lanes[lane]
					if l.head < len(l.buf) && l.buf[l.head].at < now {
						t.Fatalf("op %d: ApplyLane(%d) left a refresh at %d before now %d", i, lane, l.buf[l.head].at, now)
					}
				}
			}
			compareTwins(t, i, ref.c, buf.c)
		}
		end := now
		for _, at := range last {
			end = max(end, at)
		}
		ref.eng.RunUntil(end + 2)
		buf.eng.RunUntil(end + 2)
		compareTwins(t, len(ops), ref.c, buf.c)
		for lane := range buf.c.lanes {
			buf.c.ApplyLane(lane)
			if l := buf.c.lanes[lane]; len(l.buf) != 0 {
				t.Fatalf("lane %d holds %d refreshes after every instant passed", lane, len(l.buf)-l.head)
			}
		}
		compareTwins(t, len(ops), ref.c, buf.c)
	})
}

// compareTwins fails unless buf, read through its pending refreshes,
// matches ref line for line and ring entry for ring entry, and passes
// its own invariants.
func compareTwins(t *testing.T, op int, ref, buf *Cache) {
	t.Helper()
	if msg := buf.CheckInvariants(); msg != "" {
		t.Fatalf("op %d: buffered cache: %s", op, msg)
	}
	lines, ring := effective(buf)
	for w := range lines {
		r, b := ref.lines[w], lines[w]
		if r.valid != b.valid || r.valid && r != b {
			t.Fatalf("op %d: way %d: reference %+v, buffered %+v", op, w, r, b)
		}
	}
	if ref.ring == nil {
		return
	}
	if len(ref.ring.entries) != len(ring) {
		t.Fatalf("op %d: ring holds %d pages in the reference, %d buffered", op, len(ref.ring.entries), len(ring))
	}
	for i := range ring {
		if ref.ring.entries[i] != ring[i] {
			t.Fatalf("op %d: ring entry %d: reference %+v, buffered %+v", op, i, ref.ring.entries[i], ring[i])
		}
	}
}
