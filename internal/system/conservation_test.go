package system

import (
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
// pages.
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
			s.RunClosedLoop(48, 5_000_000, 40_000_000)
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
		})
	}
}

// TestCacheInvariantsAfterRun runs an AstriFlash machine under
// hit-economics admission and a Flash-Sync machine, and checks the DRAM
// cache's invariants where each run stops, with fetches still in
// flight: no page resident twice, each resident line's pin count equal
// to the pin map's, and each MSR set within its ways with no page twice.
func TestCacheInvariantsAfterRun(t *testing.T) {
	for _, c := range []struct {
		name string
		mode Mode
		wl   string
		adm  string
	}{
		{"astriflash-tinykv-hit-economics", AstriFlash, "tinykv", "hit-economics"},
		{"flash-sync-tatp", FlashSync, "tatp", ""},
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
			s.RunClosedLoop(16, 1_000_000, 4_000_000)
			if s.dc.Accesses.Misses == 0 {
				t.Fatal("the run missed nothing; it does not exercise the MSR")
			}
			if msg := s.dc.CheckInvariants(); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}
