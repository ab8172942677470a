package sim

import (
	"fmt"
	"testing"
)

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

func chainStep(a any) {
	c := a.(*chainLink)
	c.i++
	c.e.AfterFunc(chainDelays[c.i&255], chainStep, c)
}

// BenchmarkEngineChain measures the pattern that dominates real runs:
// depth standing chains whose every event, fired by Step, schedules its
// own successor 1-40 ns ahead. One op is one Step.
func BenchmarkEngineChain(b *testing.B) {
	for _, depth := range []int{8, 64, 128} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			e := NewEngine()
			for i := 0; i < depth; i++ {
				c := &chainLink{e: e, i: i * 37}
				e.AfterFunc(chainDelays[c.i&255], chainStep, c)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
