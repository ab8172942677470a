package system

import (
	"math"
	"reflect"
	"testing"

	"astriflash/internal/obs"
)

// The flattened hot path (flat.go) must be observationally equivalent to
// the legacy one-event-per-stage chain it replaced: same Result, same
// counter registry, same span stream. LegacyEvents keeps the old chain
// alive exactly so these tests can hold that line.

// runDiff runs one configuration twice — flattened (default) and legacy —
// with tracing attached, and fails on any divergence.
func runDiff(t *testing.T, mode Mode, wl string, run func(*System) Result) {
	t.Helper()
	results := make([]Result, 2)
	spans := make([][]obs.Span, 2)
	for i, legacy := range []bool{false, true} {
		cfg := testConfig(mode, wl)
		cfg.LegacyEvents = legacy
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		tr := obs.NewTracer()
		s.EnableTracing(tr)
		results[i] = run(s)
		sp := tr.Spans()
		obs.SortSpans(sp)
		spans[i] = sp
	}
	if !reflect.DeepEqual(results[0], results[1]) {
		t.Errorf("%v/%s: flattened Result diverged from legacy\nflat:   %+v\nlegacy: %+v",
			mode, wl, results[0], results[1])
	}
	if len(spans[0]) != len(spans[1]) {
		t.Fatalf("%v/%s: flattened run emitted %d spans, legacy %d",
			mode, wl, len(spans[0]), len(spans[1]))
	}
	for i := range spans[0] {
		if spans[0][i] != spans[1][i] {
			t.Fatalf("%v/%s: span %d diverged:\nflat:   %+v\nlegacy: %+v",
				mode, wl, i, spans[0][i], spans[1][i])
		}
	}
}

func closedRun(s *System) Result { return s.RunClosedLoop(48, 5_000_000, 10_000_000) }

// TestFlatMatchesLegacyAllModes sweeps every mode over tatp under a
// saturated closed loop.
func TestFlatMatchesLegacyAllModes(t *testing.T) {
	for _, m := range Modes() {
		runDiff(t, m, "tatp", closedRun)
	}
}

// TestFlatMatchesLegacyWorkloads sweeps the remaining workloads under the
// full AstriFlash mode (the mode with the richest event interleaving).
func TestFlatMatchesLegacyWorkloads(t *testing.T) {
	for _, wl := range []string{"arrayswap", "rbt", "hashtable", "tpcc", "silo", "masstree"} {
		runDiff(t, AstriFlash, wl, closedRun)
	}
}

// TestFlatMatchesLegacyOpenLoop covers the RunSource path: admission,
// expiry shedding, and the drain phase all run through the flattened code.
func TestFlatMatchesLegacyOpenLoop(t *testing.T) {
	runDiff(t, AstriFlash, "tatp", func(s *System) Result {
		return s.RunOpenLoop(2_000, 2_000_000, 6_000_000)
	})
}

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
		s.measuring = true
		for _, c := range s.cores {
			for i := 0; i < 48; i++ {
				s.spawnJob(c, 0)
			}
		}
		// Warm every pool: job slabs, step buffers, histogram buckets,
		// event-heap capacity, MSHR and BC tables, fetch records.
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
	// B+tree splits from tatp's inserts, a step buffer meeting a longer
	// job, FTL map entries for pages written for the first time, and
	// pools reaching a new high-water mark.
	for _, c := range []struct {
		mode Mode
		max  float64
	}{{DRAMOnly, 0}, {AstriFlash, 1}, {FlashSync, 0}, {OSSwap, 0}} {
		if got := measure(c.mode); got > c.max {
			t.Errorf("%v steady state allocated %.1f objects per ms of simulated time, want <= %.0f", c.mode, got, c.max)
		}
	}
}
