package sim

import "testing"

// BenchmarkEngineScheduleFire measures the engine's hot loop: schedule one
// event and fire it, the pattern every simulated memory access repeats
// several times. Allocations here multiply across every job in every
// figure sweep.
func BenchmarkEngineScheduleFire(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(1, func() {})
		e.Step()
	}
}

// nopEvent is the package-level callback for the closure-free benchmark.
func nopEvent(any) {}

// BenchmarkEngineScheduleFireFunc is the closure-free variant: AfterFunc
// with a package-level callback and pointer argument, the pattern the hot
// per-access paths in internal/system use.
func BenchmarkEngineScheduleFireFunc(b *testing.B) {
	e := NewEngine()
	arg := new(int)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.AfterFunc(1, nopEvent, arg)
		e.Step()
	}
}

// BenchmarkEngineScheduleFireDepth measures schedule+fire with a standing
// queue of 256 events, the typical steady-state depth of a saturated
// multi-core run, so heap sift costs are visible.
func BenchmarkEngineScheduleFireDepth(b *testing.B) {
	e := NewEngine()
	for i := 0; i < 256; i++ {
		e.At(Time(1+i), func() {})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(300, func() {})
		e.Step()
	}
}

// chainLink is one self-rescheduling event chain: the simulator's core
// loop, where each fired step schedules the core's next one.
type chainLink struct {
	e *Engine
	i int
}

// chainDelays are the chains' pseudo-random horizons, 1-40 ns.
var chainDelays = func() (d [256]Time) {
	r := NewRNG(3)
	for i := range d {
		d[i] = Time(1 + r.Intn(40))
	}
	return d
}()

// farDelays are flash-scale horizons, 50-90 µs, past the timing wheel.
var farDelays = func() (d [256]Time) {
	r := NewRNG(5)
	for i := range d {
		d[i] = 50*Microsecond + Time(r.Intn(40_001))
	}
	return d
}()

func chainStep(a any) {
	c := a.(*chainLink)
	c.i++
	c.e.AfterFunc(chainDelays[c.i&255], chainStep, c)
}

func farStep(a any) {
	c := a.(*chainLink)
	c.i++
	c.e.AfterFunc(farDelays[c.i&255], farStep, c)
}

// BenchmarkEngineChain measures the pattern that dominates real runs:
// depth standing chains whose every event, fired by Step, schedules its
// own successor 1-40 ns ahead. The mixed case adds the queue of a flash
// machine such as the benchmark's tatp-512m: 16 core chains beside 100
// standing chains of flash completions 50-90 µs ahead, which go through
// the overflow heap. One op is one Step.
func BenchmarkEngineChain(b *testing.B) {
	for _, c := range []struct {
		name      string
		near, far int
	}{{"depth=8", 8, 0}, {"depth=64", 64, 0}, {"depth=128", 128, 0}, {"mixed=16+100", 16, 100}} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < c.near; i++ {
				l := &chainLink{e: e, i: i * 37}
				e.AfterFunc(chainDelays[l.i&255], chainStep, l)
			}
			for i := 0; i < c.far; i++ {
				l := &chainLink{e: e, i: i * 37}
				e.AfterFunc(farDelays[l.i&255], farStep, l)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
