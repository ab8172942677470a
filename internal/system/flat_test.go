package system

import (
	"math"
	"testing"
)

// TestFlatSteadyStateZeroAllocs is the hot-loop regression guard: once
// pools are warm, a saturated run must not allocate — jobs with their
// threads and tasks, steps, queue slots, events, and the DRAM cache's
// fetch records and waiter slices are all reused.
func TestFlatSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc measurement needs a settled heap")
	}
	measure := func(mode Mode) float64 {
		cfg := testConfig(mode, "tatp")
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		s.onJobDone = func(c *coreState) { s.spawnJob(c, s.eng.Now()) }
		s.mStart, s.mEnd = 0, math.MaxInt64
		for _, c := range s.cores {
			for i := 0; i < 48; i++ {
				s.spawnJob(c, 0)
			}
		}
		// Warm every pool: job slabs, step buffers, histogram buckets,
		// event-heap capacity, MSR and BC tables, fetch records.
		next := int64(5_000_000)
		s.eng.RunUntil(next)
		return testing.AllocsPerRun(5, func() {
			next += 1_000_000
			s.eng.RunUntil(next)
		})
	}
	// The miss path may not allocate: a page waiter is a (func, arg) pair
	// whose state lives in the job it names, and a job, like a fetch
	// record, is recycled only after every event and waiter naming it has
	// fired. What AstriFlash still allocates (about one object per
	// simulated ms here) is growth of simulated state, not per-miss cost:
	// FTL map entries for pages written for the first time, and pools
	// reaching a new high-water mark. Step buffers start at tatp's stated
	// longest trace and never regrow.
	for _, c := range []struct {
		mode Mode
		max  float64
	}{{DRAMOnly, 0}, {AstriFlash, 1}, {FlashSync, 0}, {OSSwap, 0}} {
		if got := measure(c.mode); got > c.max {
			t.Errorf("%v steady state allocated %.1f objects per ms of simulated time, want <= %.0f", c.mode, got, c.max)
		}
	}
}
