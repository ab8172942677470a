package system

import (
	"math"
	"testing"

	"astriflash/internal/dramcache"
)

// TestFlashProgramConservation checks a cross-layer law on the write
// path: over a run, the device's physical page programs, counted where
// each page is written, equal the host writes plus the GC relocations
// plus the remap copies, each counted where it is caused. The machine is
// the benchmark's write-heavy tinykv configuration (2% updates, hit-
// economics admission, a tight TLC device that garbage-collects); the
// faults case adds program failures and uncorrectable reads, which remap
// pages. The Result's write amplification and GC-blocked fraction must
// follow the window's counts, on a machine whose warmup already
// relocates pages.
func TestFlashProgramConservation(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two write-heavy machines")
	}
	for _, c := range []struct {
		name   string
		faults bool
	}{{"tinykv-write", false}, {"tinykv-write+faults", true}} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(AstriFlash, "tinykv")
			cfg.Cores = 8
			cfg.Workload.DatasetBytes = 16 << 20
			cfg.Workload.WriteFraction = 0.02
			cfg.Workload.HotAccessFraction = 0.98
			cfg.Admission = dramcache.AdmissionConfig{Policy: "hit-economics"}
			cfg.Flash.Channels = 8
			cfg.FlashFixed = true
			cfg.Flash.BlocksPerPlane = 6
			cfg.Flash.PagesPerBlock = 16
			if c.faults {
				cfg.Flash.RBER = 4e-3
				cfg.Flash.PEFailProb = 2e-3
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			d := s.Flash()
			caused := func() uint64 { return d.Writes.Value() + d.GCPageMoves.Value() + d.RemapMoves.Value() }
			programs0, caused0 := d.ProgramCount(), caused()
			r := s.RunClosedLoop(48, 40_000_000, 20_000_000)
			programs, causes := d.ProgramCount()-programs0, caused()-caused0
			t.Logf("programs %d: writes %d, GC moves %d, remap moves %d, GC runs %d",
				programs, d.Writes.Value(), d.GCPageMoves.Value(), d.RemapMoves.Value(), d.GCRuns.Value())
			relocations := d.GCRuns.Value()
			if c.faults {
				relocations = d.RemapMoves.Value()
			}
			if relocations == 0 {
				t.Fatal("the run ran no GC (remapped nothing, with faults); it does not exercise the law")
			}
			if programs != causes {
				t.Fatalf("device programmed %d pages, writes + GC moves + remap moves = %d", programs, causes)
			}
			// The same law over the measurement window, as the Result
			// reports it: FlashPrograms is the device's own count.
			w := r.Counters
			sum := w["flash.writes"] + w["flash.gc_page_moves"] + w["flash.remap_moves"]
			if r.FlashPrograms != sum {
				t.Fatalf("window: FlashPrograms %d, writes + GC moves + remap moves = %d", r.FlashPrograms, sum)
			}
			// WriteAmplification and GCBlockedFraction are the window's
			// own ratios too. The warmup relocates pages (GC moves, or
			// remaps with faults), so a ratio read from the device since
			// construction breaks the law.
			if d.GCPageMoves.Value()+d.RemapMoves.Value() == w["flash.gc_page_moves"]+w["flash.remap_moves"] {
				t.Fatal("the warmup relocated no page; it cannot tell a window ratio from a lifetime one")
			}
			if got := r.WriteAmplification * float64(r.FlashWrites); math.Abs(got-float64(sum)) > 1e-9*float64(sum) {
				t.Fatalf("window: WriteAmplification %v x FlashWrites %d = %v, writes + GC moves + remap moves = %d",
					r.WriteAmplification, r.FlashWrites, got, sum)
			}
			if got, want := r.GCBlockedFraction*float64(r.FlashReads), float64(w["flash.gc_blocked_reads"]); math.Abs(got-want) > 1e-9*want {
				t.Fatalf("window: GCBlockedFraction %v x FlashReads %d = %v, GC-blocked reads %v",
					r.GCBlockedFraction, r.FlashReads, got, want)
			}
		})
	}
}

// TestArrivalConservation checks the open-loop front door: every arrival
// the source generates in the window, counted where it arrives, is
// admitted, shed by the controller or dropped at the full queue, each
// counted where it is decided. The run overloads a small machine through
// a bounded queue and CoDel so that all three outcomes occur.
func TestArrivalConservation(t *testing.T) {
	s, err := New(testConfig(AstriFlash, "tatp"))
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.RunSource(Source{MeanGapNs: 500, QueueLimit: 32,
		Controller: "codel", CoDelTargetNs: 5_000, CoDelIntervalNs: 50_000,
		WarmupNs: 1_000_000, MeasureNs: 3_000_000})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("offered %d: admitted %d, sheds %d, queue-full drops %d",
		r.Offered, r.Admitted, r.AdmissionSheds, r.QueueFullDrops)
	if r.Admitted == 0 || r.AdmissionSheds == 0 || r.QueueFullDrops == 0 {
		t.Fatal("an outcome never occurred; the run does not exercise the law")
	}
	if sum := r.Admitted + r.AdmissionSheds + r.QueueFullDrops; r.Offered != sum {
		t.Fatalf("offered %d arrivals, admitted + sheds + queue-full drops = %d", r.Offered, sum)
	}
}

// TestCacheInvariantsAfterRun runs an AstriFlash machine under
// hit-economics admission, an open-loop AstriFlash machine and a
// Flash-Sync machine, and checks the DRAM cache's invariants where each
// run stops, with fetches still in flight and recency refreshes still
// buffered: no page resident twice, each resident line's pin count
// equal to the pin map's, no stamp later than now, each refresh lane in
// instant order, and each MSR set within its ways with no page twice.
func TestCacheInvariantsAfterRun(t *testing.T) {
	for _, c := range []struct {
		name string
		mode Mode
		wl   string
		adm  string
		open bool
	}{
		{"astriflash-tinykv-hit-economics", AstriFlash, "tinykv", "hit-economics", false},
		{"astriflash-tatp-open", AstriFlash, "tatp", "", true},
		{"flash-sync-tatp", FlashSync, "tatp", "", false},
	} {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			cfg := DefaultConfig(c.mode, c.wl)
			cfg.Cores = 4
			cfg.Workload.DatasetBytes = 8 << 20
			cfg.Admission = dramcache.AdmissionConfig{Policy: c.adm}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if c.open {
				if _, err := s.RunSource(Source{MeanGapNs: 600, WarmupNs: 1_000_000, MeasureNs: 4_000_000}); err != nil {
					t.Fatal(err)
				}
			} else {
				s.RunClosedLoop(16, 1_000_000, 4_000_000)
			}
			if s.dc.Accesses.Misses == 0 {
				t.Fatal("the run missed nothing; it does not exercise the MSR")
			}
			if msg := s.dc.CheckInvariants(); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}
