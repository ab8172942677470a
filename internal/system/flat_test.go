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

// TestDRAMOnlyEventCensus checks the per-access path's event law on a
// DRAM-only closed-loop machine: a job's private stages (compute, TLB
// probe, flat walk, on-chip probe) fire no event, so the engine fires
// exactly two events per DRAM-cache probe (the probe and its reply) and
// one per job completion. Both counts are kept apart from the engine and
// taken since construction: probes by the DRAM cache, completions as the
// requests spawned, once the run is drained so that every spawned request
// has completed and every pushed event has fired.
func TestDRAMOnlyEventCensus(t *testing.T) {
	s, err := New(testConfig(DRAMOnly, "tatp"))
	if err != nil {
		t.Fatal(err)
	}
	s.RunClosedLoop(48, 5_000_000, 10_000_000)
	s.onJobDone = nil // spawn no more; let the jobs in flight finish
	s.eng.Run()
	probes := s.dc.Accesses.Hits + s.dc.Accesses.Misses
	completions := s.reqSeq
	if probes == 0 || completions == 0 {
		t.Fatalf("degenerate run: %d probes, %d completions", probes, completions)
	}
	fired := s.eng.Fired()
	t.Logf("fired %d = 2 x %d probes + %d completions", fired, probes, completions)
	if want := 2*probes + completions; fired != want {
		t.Errorf("engine fired %d events, want 2 x %d DRAM-cache probes + %d completions = %d",
			fired, probes, completions, want)
	}
}

// BenchmarkSystemJob is the per-access path's layer number: host ns,
// allocations and engine events per completed job on a 4-core, 16 MiB
// tatp machine held saturated (48 jobs in flight per core, the
// measurement window open throughout), once DRAM-only and once under
// AstriFlash. Construction and a 2 ms warm-up (pools, caches, TLBs) run
// before the timer starts; b.N counts jobs.
func BenchmarkSystemJob(b *testing.B) {
	for _, mode := range []Mode{DRAMOnly, AstriFlash} {
		b.Run(mode.String(), func(b *testing.B) {
			s, err := New(testConfig(mode, "tatp"))
			if err != nil {
				b.Fatal(err)
			}
			done := 0
			s.onJobDone = func(c *coreState) {
				done++
				s.spawnJob(c, s.eng.Now())
			}
			s.mStart, s.mEnd = 0, math.MaxInt64
			for _, c := range s.cores {
				for i := 0; i < 48; i++ {
					s.spawnJob(c, 0)
				}
			}
			s.eng.RunUntil(2_000_000)
			done = 0
			fired := s.eng.Fired()
			b.ReportAllocs()
			b.ResetTimer()
			for done < b.N && s.eng.Step() {
			}
			b.StopTimer()
			b.ReportMetric(float64(s.eng.Fired()-fired)/float64(b.N), "events/job")
		})
	}
}
