package system

import (
	"fmt"
	"strings"
	"testing"

	"astriflash/internal/dramcache"
)

// Pooled records on the miss path (jobs with their threads and tasks,
// the DRAM cache's fetch records and waiter slices) are recycled only once
// nothing names them, and an event or page waiter that fires against a
// recycled record panics. This matrix drives every miss mechanism through
// the paths where a record outlives its first completion — watchdog
// timeouts racing late reads, uncorrectable retries and fallbacks,
// footprint block fetches, bypass-ring installs — and shows the guards
// never trip.
func TestPooledRecordLifetimes(t *testing.T) {
	scenarios := []struct {
		name  string
		tune  func(*Config)
		check func(t *testing.T, dc *dramcache.Cache)
	}{
		{"faults+watchdog", func(c *Config) {
			c.Flash.RBER = 4e-3
			c.FlashReadTimeoutNs = 60_000
			c.FlashReadRetries = 2
		}, func(t *testing.T, dc *dramcache.Cache) {
			if dc.FlashTimeouts.Value() == 0 || dc.FlashRetries.Value() == 0 || dc.FlashFallbacks.Value() == 0 {
				t.Errorf("timeouts %d, retries %d, fallbacks %d: want all exercised",
					dc.FlashTimeouts.Value(), dc.FlashRetries.Value(), dc.FlashFallbacks.Value())
			}
		}},
		{"footprint", func(c *Config) { c.FootprintCache = true }, func(t *testing.T, dc *dramcache.Cache) {
			if dc.Footprint().Underpredictions.Value() == 0 {
				t.Error("no footprint block fetches")
			}
		}},
		{"hit-economics", func(c *Config) {
			c.Admission = dramcache.AdmissionConfig{Policy: "hit-economics"}
		}, func(t *testing.T, dc *dramcache.Cache) {
			if dc.AdmBypassed.Value() == 0 || dc.BypassHits.Value() == 0 {
				t.Errorf("bypassed %d, ring hits %d: want both exercised", dc.AdmBypassed.Value(), dc.BypassHits.Value())
			}
		}},
	}
	for _, sc := range scenarios {
		for _, mode := range []Mode{AstriFlash, AstriFlashNoDP, FlashSync, OSSwap} {
			t.Run(sc.name+"/"+strings.ReplaceAll(mode.String(), "/", "-"), func(t *testing.T) {
				cfg := testConfig(mode, "rbt")
				sc.tune(&cfg)
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				r := s.RunClosedLoop(4, 2_000_000, 10_000_000)
				if r.ThroughputJPS == 0 {
					t.Fatal("no jobs completed")
				}
				sc.check(t, s.dc)
				if msg := s.dc.CheckInvariants(); msg != "" {
					t.Fatal(msg)
				}
				recycled := false
				for _, job := range s.jobPool {
					if job.waits != 0 || job.retired {
						t.Fatalf("pooled job holds %d waits (retired %v)", job.waits, job.retired)
					}
					recycled = recycled || job.gen > 1
				}
				if !recycled {
					t.Error("no job record was recycled twice; the run is too short to test lifetimes")
				}
			})
		}
	}
}

// TestRecycledJobWaiterPanics shows the job guard trips: a page waiter
// firing against a job with no outstanding registration is a bug.
func TestRecycledJobWaiterPanics(t *testing.T) {
	s, err := New(testConfig(AstriFlash, "tatp"))
	if err != nil {
		t.Fatal(err)
	}
	job := s.newJob()
	job.core = s.cores[0]
	s.freeJob(job)
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "recycled job") {
			t.Fatalf("stale waiter fire: recovered %v, want the recycled-job panic", r)
		}
	}()
	parkedPageReady(job, 0)
}
