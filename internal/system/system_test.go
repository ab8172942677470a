package system

import (
	"testing"

	"astriflash/internal/dramcache"
	"astriflash/internal/workload"
)

// testConfig shrinks everything for fast unit runs.
func testConfig(mode Mode, wl string) Config {
	cfg := DefaultConfig(mode, wl)
	cfg.Cores = 4
	cfg.Workload.DatasetBytes = 16 << 20
	return cfg
}

func runClosed(t *testing.T, mode Mode, wl string) Result {
	t.Helper()
	s, err := New(testConfig(mode, wl))
	if err != nil {
		t.Fatal(err)
	}
	return s.RunClosedLoop(48, 5_000_000, 10_000_000)
}

func TestConfigValidation(t *testing.T) {
	bad := testConfig(DRAMOnly, "tatp")
	bad.Cores = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero cores accepted")
	}
	bad = testConfig(DRAMOnly, "tatp")
	bad.DRAMCacheFraction = 0
	if _, err := New(bad); err == nil {
		t.Fatal("zero cache fraction accepted")
	}
	if _, err := New(testConfig(DRAMOnly, "unknown-workload")); err == nil {
		t.Fatal("unknown workload accepted")
	}
	// A mode outside Modes() would build a machine whose run dereferences
	// components no mode set up.
	if _, err := New(testConfig(Mode(99), "tatp")); err == nil {
		t.Fatal("unknown mode accepted")
	}
	// Negative latencies pass construction only to panic mid-run (an
	// event scheduled in the past, a negative delay): New must refuse them.
	for name, mutate := range map[string]func(*Config){
		"FlatPTAccessNs":    func(c *Config) { c.FlatPTAccessNs = -5 },
		"CPU.FlushBase":     func(c *Config) { c.CPU.FlushBase = -10000 },
		"CPU.FlushPerEntry": func(c *Config) { c.CPU.FlushPerEntry = -1 },
		"CPU.ROBEntries":    func(c *Config) { c.CPU.ROBEntries = -2 },
	} {
		bad = testConfig(AstriFlash, "tatp")
		mutate(&bad)
		if _, err := New(bad); err == nil {
			t.Errorf("negative %s accepted", name)
		}
	}
}

func TestModeStrings(t *testing.T) {
	if len(Modes()) != 7 {
		t.Fatalf("got %d modes, want 7", len(Modes()))
	}
	seen := map[string]bool{}
	for _, m := range Modes() {
		s := m.String()
		if s == "" || seen[s] {
			t.Fatalf("bad mode string %q", s)
		}
		seen[s] = true
	}
	if Mode(99).String() == "" {
		t.Fatal("unknown mode should still render")
	}
}

func TestDRAMOnlyNeverTouchesFlash(t *testing.T) {
	res := runClosed(t, DRAMOnly, "tatp")
	if res.FlashReads != 0 {
		t.Fatalf("DRAM-only read flash %d times", res.FlashReads)
	}
	if res.DRAMCacheMissRatio != 0 {
		t.Fatalf("DRAM-only miss ratio %v", res.DRAMCacheMissRatio)
	}
	if res.Jobs == 0 {
		t.Fatal("no jobs completed")
	}
}

// TestFigure9Ordering is the core shape check: throughput must order
// DRAM-only >= AstriFlash-Ideal >= AstriFlash >> OS-Swap > Flash-Sync,
// with AstriFlash close to DRAM-only and Flash-Sync crippled — the
// paper's Figure 9.
func TestFigure9Ordering(t *testing.T) {
	tput := map[Mode]float64{}
	for _, m := range []Mode{DRAMOnly, AstriFlash, AstriFlashIdeal, OSSwap, FlashSync} {
		tput[m] = runClosed(t, m, "tatp").ThroughputJPS
	}
	base := tput[DRAMOnly]
	if base == 0 {
		t.Fatal("DRAM-only made no progress")
	}
	rel := func(m Mode) float64 { return tput[m] / base }
	if rel(AstriFlash) < 0.85 {
		t.Fatalf("AstriFlash at %.2f of DRAM-only, want >= 0.85 (paper: 0.95)", rel(AstriFlash))
	}
	if rel(AstriFlashIdeal) < rel(AstriFlash)-0.03 {
		t.Fatalf("Ideal (%.2f) should not trail AstriFlash (%.2f)", rel(AstriFlashIdeal), rel(AstriFlash))
	}
	if rel(OSSwap) > rel(AstriFlash) {
		t.Fatalf("OS-Swap (%.2f) beat AstriFlash (%.2f)", rel(OSSwap), rel(AstriFlash))
	}
	if rel(OSSwap) < 0.25 || rel(OSSwap) > 0.85 {
		t.Fatalf("OS-Swap at %.2f of DRAM-only, want mid-range (paper: 0.58)", rel(OSSwap))
	}
	if rel(FlashSync) > 0.45 {
		t.Fatalf("Flash-Sync at %.2f of DRAM-only, want <= 0.45 (paper: 0.27)", rel(FlashSync))
	}
	if rel(FlashSync) > rel(OSSwap) {
		t.Fatalf("Flash-Sync (%.2f) beat OS-Swap (%.2f)", rel(FlashSync), rel(OSSwap))
	}
}

func TestMissIntervalInPaperBand(t *testing.T) {
	// Section V-A: benchmarks trigger a DRAM-cache miss every 5-25 us.
	// Allow a wider tolerance across the scaled suite.
	res := runClosed(t, AstriFlash, "tatp")
	if res.MeanMissIntervalNs < 3_000 || res.MeanMissIntervalNs > 60_000 {
		t.Fatalf("mean miss interval %d ns outside calibration band", res.MeanMissIntervalNs)
	}
}

func TestNoDPDegradesTail(t *testing.T) {
	base := runClosed(t, AstriFlash, "tatp")
	nodp := runClosed(t, AstriFlashNoDP, "tatp")
	if nodp.P99ServiceNs <= base.P99ServiceNs {
		t.Fatalf("noDP p99 service %d did not exceed AstriFlash %d",
			nodp.P99ServiceNs, base.P99ServiceNs)
	}
}

func TestNoPSDegradesServiceLatency(t *testing.T) {
	base := runClosed(t, AstriFlash, "tatp")
	nops := runClosed(t, AstriFlashNoPS, "tatp")
	if nops.P99ServiceNs < 2*base.P99ServiceNs {
		t.Fatalf("noPS p99 service %d vs AstriFlash %d: starvation not visible",
			nops.P99ServiceNs, base.P99ServiceNs)
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := runClosed(t, AstriFlash, "rbt")
	b := runClosed(t, AstriFlash, "rbt")
	if a.Jobs != b.Jobs || a.P99ServiceNs != b.P99ServiceNs || a.FlashReads != b.FlashReads {
		t.Fatalf("identical configs diverged: %+v vs %+v", a, b)
	}
}

func TestOpenLoopRecordsLatencies(t *testing.T) {
	s, err := New(testConfig(AstriFlash, "tatp"))
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunOpenLoop(3_000, 3_000_000, 10_000_000)
	if res.Jobs == 0 {
		t.Fatal("no jobs completed in open loop")
	}
	if res.P99ResponseNs < res.P50ResponseNs {
		t.Fatal("p99 below p50")
	}
	if res.P99ResponseNs <= 0 {
		t.Fatal("no response latency recorded")
	}
}

func TestOpenLoopLatencyGrowsWithLoad(t *testing.T) {
	run := func(gap float64) int64 {
		s, err := New(testConfig(AstriFlash, "tatp"))
		if err != nil {
			t.Fatal(err)
		}
		return s.RunOpenLoop(gap, 3_000_000, 10_000_000).P99ResponseNs
	}
	light := run(50_000)
	heavy := run(1_400) // ~90% of the 4-core machine's capacity
	if heavy <= light {
		t.Fatalf("p99 at heavy load (%d) not above light load (%d)", heavy, light)
	}
}

func TestAllWorkloadsRunAllModes(t *testing.T) {
	if testing.Short() {
		t.Skip("full matrix")
	}
	for _, wl := range workload.Names() {
		for _, m := range Modes() {
			cfg := testConfig(m, wl)
			s, err := New(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", m, wl, err)
			}
			res := s.RunClosedLoop(32, 2_000_000, 4_000_000)
			if res.Jobs == 0 {
				t.Fatalf("%s/%s: no jobs completed", m, wl)
			}
			if msg := s.DRAMCache().CheckInvariants(); msg != "" {
				t.Fatalf("%s/%s: %s", m, wl, msg)
			}
			if msg := s.Flash().CheckFTLInvariants(); msg != "" {
				t.Fatalf("%s/%s: %s", m, wl, msg)
			}
		}
	}
}

func TestForwardProgressGuarantee(t *testing.T) {
	// With a pathologically tiny pending queue, misses must still make
	// progress through forced-synchronous completion.
	cfg := testConfig(AstriFlash, "rbt")
	cfg.Sched.PendingLimit = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunClosedLoop(16, 2_000_000, 6_000_000)
	if res.Jobs == 0 {
		t.Fatal("system wedged with tiny pending queue")
	}
	if res.ForcedSyncCount == 0 {
		t.Fatal("expected forced synchronous completions under pending pressure")
	}
}

func TestLatencyBreakdown(t *testing.T) {
	check := func(mode Mode, wantBucket string) {
		s, err := New(testConfig(mode, "tatp"))
		if err != nil {
			t.Fatal(err)
		}
		s.RunClosedLoop(48, 3_000_000, 8_000_000)
		bd := s.LatencyBreakdown()
		if len(bd) == 0 {
			t.Fatal("no breakdown")
		}
		var total float64
		byName := map[string]Breakdown{}
		for _, b := range bd {
			total += b.Fraction
			byName[b.Bucket] = b
			if b.Ns < 0 || b.Fraction < 0 {
				t.Fatalf("%s: negative attribution %+v", mode, b)
			}
		}
		if total < 0.999 || total > 1.001 {
			t.Fatalf("%s: fractions sum to %v", mode, total)
		}
		if byName["compute"].Ns == 0 {
			t.Fatalf("%s: no compute attributed", mode)
		}
		if wantBucket != "" && byName[wantBucket].Ns == 0 {
			t.Fatalf("%s: expected time in %q, got %+v", mode, wantBucket, bd)
		}
	}
	check(DRAMOnly, "dram-cache")
	check(AstriFlash, "flash-wait")
	check(OSSwap, "os-paging")
	check(FlashSync, "flash-wait")
	// DRAM-only must attribute nothing to flash or OS paging.
	s, _ := New(testConfig(DRAMOnly, "tatp"))
	s.RunClosedLoop(48, 3_000_000, 8_000_000)
	for _, b := range s.LatencyBreakdown() {
		if (b.Bucket == "flash-wait" || b.Bucket == "os-paging") && b.Ns != 0 {
			t.Fatalf("DRAM-only charged %s", b.Bucket)
		}
	}
}

func TestFootprintCacheThroughSystem(t *testing.T) {
	cfg := testConfig(AstriFlash, "tatp")
	cfg.FootprintCache = true
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res := s.RunClosedLoop(32, 3_000_000, 6_000_000)
	if res.Jobs == 0 {
		t.Fatal("no progress with footprint fetching")
	}
	fp := s.DRAMCache().Footprint()
	if fp == nil {
		t.Fatal("footprint extension not enabled")
	}
	if fp.BlocksSaved.Value() == 0 {
		t.Fatal("footprint fetch saved no transfer through the full system")
	}
	if msg := s.DRAMCache().CheckInvariants(); msg != "" {
		t.Fatal(msg)
	}
}

func TestReplacementPolicyThroughSystem(t *testing.T) {
	for _, pol := range []dramcache.Replacement{dramcache.ReplLRU, dramcache.ReplFIFO, dramcache.ReplRandom} {
		cfg := testConfig(AstriFlash, "rbt")
		cfg.CacheReplacement = pol
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res := s.RunClosedLoop(16, 2_000_000, 4_000_000)
		if res.Jobs == 0 {
			t.Fatalf("%v: no progress", pol)
		}
	}
}
