package sim

import (
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestEngineOrdersEventsByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events fired out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineTieBreaksByScheduleOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestEngineAfterUsesCurrentTime(t *testing.T) {
	e := NewEngine()
	var at Time
	e.At(100, func() {
		e.After(50, func() { at = e.Now() })
	})
	e.Run()
	if at != 150 {
		t.Fatalf("After fired at %d, want 150", at)
	}
}

func TestEngineRunUntilLeavesFutureEvents(t *testing.T) {
	e := NewEngine()
	fired := 0
	e.At(10, func() { fired++ })
	e.At(20, func() { fired++ })
	e.At(30, func() { fired++ })
	e.RunUntil(20)
	if fired != 2 {
		t.Fatalf("fired = %d, want 2", fired)
	}
	if e.Now() != 20 {
		t.Fatalf("clock = %d, want 20", e.Now())
	}
	if e.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", e.Pending())
	}
}

func TestEngineRunUntilAdvancesClockWithoutEvents(t *testing.T) {
	e := NewEngine()
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %d, want 500", e.Now())
	}
}

func TestEnginePanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.At(50, func() {})
}

func TestEnginePanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

// TestEventSize caps the overflow heap's entry at 40 bytes, since the
// heap copies one per sift level, and the wheel's slab entry at 32 bytes,
// half a cache line, since nearly every event passes through one.
func TestEventSize(t *testing.T) {
	if size := unsafe.Sizeof(event{}); size > 40 {
		t.Errorf("event is %d bytes, want at most 40", size)
	}
	if size := unsafe.Sizeof(wheelEntry{}); size > 32 {
		t.Errorf("wheelEntry is %d bytes, want at most 32", size)
	}
}

// TestEngineOverflowTiesWithWheel checks the rule that joins the two
// queues: events pushed from beyond the wheel's horizon, then events
// pushed later from inside it, all for one instant, fire in push order.
func TestEngineOverflowTiesWithWheel(t *testing.T) {
	e := NewEngine()
	var got []string
	rec := func(name string) func() { return func() { got = append(got, name) } }
	const T = 3 * wheelSlots
	e.At(T, rec("overflow1"))
	e.At(10, func() {
		e.At(T, rec("overflow2"))
		e.At(T+1, rec("overflow-next"))
	})
	e.At(T-wheelSlots+1, func() {
		e.At(T, rec("wheel1"))
		e.At(T, rec("wheel2"))
	})
	e.At(T-1, func() {
		e.At(T, rec("wheel3"))
		e.At(T+1, rec("wheel-next"))
	})
	e.RunUntil(T - 1)
	if n := e.Pending(); n != 7 {
		t.Fatalf("pending = %d before the instant, want 7", n)
	}
	e.Run()
	want := "overflow1 overflow2 wheel1 wheel2 wheel3 overflow-next wheel-next"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("fired %s, want %s", s, want)
	}
}

func TestEngineEventLimit(t *testing.T) {
	e := NewEngine()
	e.Limit = 5
	var loop func()
	// Schedule two follow-ups per event so pending is nonzero at the trip.
	loop = func() { e.After(1, loop); e.After(2, loop) }
	e.After(1, loop)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("event storm did not trip the limit")
		}
		// The diagnostic must carry the queue depth and clock so a runaway
		// is debuggable from the panic alone.
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %T, want string", r)
		}
		for _, want := range []string{"limit 5", "now=", "pending="} {
			if !strings.Contains(msg, want) {
				t.Fatalf("limit panic %q missing %q", msg, want)
			}
		}
	}()
	e.Run()
}

func TestEngineAtFuncOrdersWithAt(t *testing.T) {
	e := NewEngine()
	var got []int
	record := func(a any) { got = append(got, *a.(*int)) }
	v1, v2, v3 := 1, 2, 3
	e.AtFunc(20, record, &v2)
	e.At(10, func() { got = append(got, v1) })
	e.AtFunc(30, record, &v3)
	// Same-instant tie: schedule order must win across both APIs.
	v4, v5 := 4, 5
	e.AtFunc(40, record, &v4)
	e.At(40, func() { got = append(got, v5) })
	e.Run()
	want := []int{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
}

func TestEngineAtFuncPanicsOnPastEvent(t *testing.T) {
	e := NewEngine()
	e.At(100, func() {})
	e.Run()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("AtFunc in the past did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "before now") {
			t.Fatalf("panic %v lacks causality message", r)
		}
	}()
	e.AtFunc(50, func(any) {}, nil)
}

func TestEngineAfterFuncPanicsOnNegativeDelay(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Fatal("negative AfterFunc delay did not panic")
		}
	}()
	e.AfterFunc(-1, func(any) {}, nil)
}

// TestEngineHeapStress drives the 4-ary heap through a large pseudo-random
// schedule and checks events fire in exact (time, schedule-order) order.
func TestEngineHeapStress(t *testing.T) {
	e := NewEngine()
	r := NewRNG(0xbeef)
	const n = 20000
	type stamp struct {
		at  Time
		seq int
	}
	var fired []stamp
	for i := 0; i < n; i++ {
		i := i
		at := Time(r.Intn(5000))
		e.At(at, func() { fired = append(fired, stamp{at, i}) })
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d events, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		a, b := fired[i-1], fired[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("event %d (t=%d seq=%d) fired before %d (t=%d seq=%d)",
				i-1, a.at, a.seq, i, b.at, b.seq)
		}
	}
}

// TestEngineInterleavedPushPop exercises heap shape under the simulator's
// real access pattern: pops interleaved with pushes at varying horizons.
func TestEngineInterleavedPushPop(t *testing.T) {
	e := NewEngine()
	r := NewRNG(7)
	var last Time
	executed := 0
	var spawn func()
	spawn = func() {
		executed++
		if e.Now() < last {
			t.Fatalf("clock went backwards: %d after %d", e.Now(), last)
		}
		last = e.Now()
		if executed < 5000 {
			e.After(Time(r.Intn(100)), spawn)
			if executed%3 == 0 {
				e.After(Time(r.Intn(1000)), spawn)
			}
		}
	}
	e.After(0, spawn)
	e.Run()
	if executed < 5000 {
		t.Fatalf("executed %d events, want >= 5000", executed)
	}
}

func TestEngineFiredCount(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 7; i++ {
		e.At(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 7 {
		t.Fatalf("Fired = %d, want 7", e.Fired())
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced diverging streams")
		}
	}
	c := NewRNG(43)
	same := 0
	a = NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical draws", same)
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	if err := quick.Check(func(seed uint64, n uint16) bool {
		m := int(n%1000) + 1
		r := NewRNG(seed)
		v := r.Intn(m)
		return v >= 0 && v < m
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGExpMean(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	var sum float64
	for i := 0; i < n; i++ {
		sum += r.Exp(10.0)
	}
	mean := sum / n
	if mean < 9.8 || mean > 10.2 {
		t.Fatalf("Exp(10) sample mean = %v, want ~10", mean)
	}
}

// TestRNGSkipMatchesDraws checks that Skip(n) leaves the generator where
// n Uint64 calls do, from several seeds, at the edges of the 256-step
// fold and at TATP's build draw counts for 32 MiB and 512 MiB.
func TestRNGSkipMatchesDraws(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42367, 0xdeadbeefcafe} {
		for _, n := range []uint64{0, 1, 255, 256, 257, 65537, 860_160, 13_762_560} {
			skipped, drawn := NewRNG(seed), NewRNG(seed)
			skipped.Skip(n)
			for range n {
				drawn.Uint64()
			}
			if skipped.s != drawn.s {
				t.Fatalf("seed %d: Skip(%d) state %x, %d draws %x", seed, n, skipped.s, n, drawn.s)
			}
		}
	}
}

// TestRNGCharPoly pins charPoly: x^(2^128) and x^(2^192) modulo it must be
// the xoshiro256 reference's JUMP and LONG_JUMP polynomials.
func TestRNGCharPoly(t *testing.T) {
	for _, c := range []struct {
		log2 int
		want gf2Poly
	}{
		{128, gf2Poly{0x180ec6d33cfd0aba, 0xd5a61266f0c9392c, 0xa9582618e03fc9aa, 0x39abdc4529b1661c}},
		{192, gf2Poly{0x76e15d3efefdcbbf, 0xc5004e441c522fb3, 0x77710069854ee241, 0x39109bb02acbe635}},
	} {
		p := gf2Poly{2} // x
		for range c.log2 {
			p = p.times(p)
		}
		if p != c.want {
			t.Errorf("x^(2^%d) mod charPoly = %x, want %x", c.log2, p, c.want)
		}
	}
}

func TestRNGSplitIndependence(t *testing.T) {
	r := NewRNG(9)
	child := r.Split()
	// The child stream must not simply replay the parent stream.
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == child.Uint64() {
			same++
		}
	}
	if same > 1 {
		t.Fatalf("split stream mirrors parent (%d/100 matches)", same)
	}
}

// TestEngineContinuesAfterCallbackPanic checks that an event whose
// callback panics counts as fired: once the panic is recovered, Pending
// excludes it and the next Step fires the next event, not it again.
func TestEngineContinuesAfterCallbackPanic(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(1, func() { got = append(got, 1); panic("boom") })
	e.At(2, func() { got = append(got, 2) })
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("callback panic was not propagated")
			}
		}()
		e.Step()
	}()
	if e.Pending() != 1 {
		t.Fatalf("pending = %d after the panicking event, want 1", e.Pending())
	}
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 || e.Pending() != 0 {
		t.Fatalf("fired %v, pending %d; want [1 2], 0", got, e.Pending())
	}
}
