package main

import (
	"fmt"
	"time"

	"astriflash"
)

// spec is one benchmark workload: a machine configuration plus the load
// that drives it. Every simulated cache starts empty and warms during
// warmupNs; statistics cover only the measureNs window, but host time
// covers both because the host pays for the warmup.
type spec struct {
	name string
	why  string
	// mode, workload, cores and datasetB size the machine; tune adjusts
	// the remaining Options.
	mode     astriflash.Mode
	workload string
	cores    int
	datasetB uint64
	tune     func(*astriflash.Options)
	// overload selects an open-loop RunOverload; nil runs closed-loop with
	// inflight requests outstanding per core.
	overload  *astriflash.OverloadRun
	inflight  int
	warmupNs  int64
	measureNs int64
	// traceNs is the traced pair's measurement window; spans grow with
	// the window, so it is kept short.
	traceNs int64
}

// runTimeout aborts a runaway simulation; the recovered panic counts the
// operation as failed.
const runTimeout = 60 * time.Second

// specs returns the four workloads in their fixed round order.
func specs() []spec {
	return []spec{
		{
			name:     "tatp-open",
			why:      "open-loop MMPP arrivals at ~1.3x the closed-loop knee through CoDel: the only workload through loadgen, overload and the full flash miss path",
			mode:     astriflash.AstriFlash,
			workload: "tatp",
			cores:    8,
			datasetB: 32 << 20,
			overload: &astriflash.OverloadRun{
				Shape:       "mmpp",
				MeanGapNs:   490,
				Burstiness:  0.5,
				DwellNs:     2e6,
				Controller:  "codel",
				DeadlineNs:  500_000,
				DropExpired: true,
				QueueLimit:  4096,
			},
			warmupNs:  10_000_000,
			measureNs: 40_000_000,
			traceNs:   2_000_000,
		},
		{
			name:      "tatp-dram",
			why:       "DRAM-only closed loop: engine, TLB, on-chip caches and B+tree traversal alone; the control when miss, flash, uthread or loadgen code changes",
			mode:      astriflash.DRAMOnly,
			workload:  "tatp",
			cores:     8,
			datasetB:  32 << 20,
			inflight:  48,
			warmupNs:  10_000_000,
			measureNs: 50_000_000,
			traceNs:   2_000_000,
		},
		{
			name:     "tinykv-write",
			why:      "128 B objects with 2% updates under hit-economics admission on a tight TLC device: admission, bypass ring, dirty write-backs, FTL programs and GC",
			mode:     astriflash.AstriFlash,
			workload: "tinykv",
			cores:    8,
			datasetB: 32 << 20,
			tune: func(o *astriflash.Options) {
				o.WriteFraction = 0.02
				o.HotAccessFraction = 0.98
				o.AdmissionPolicy = "hit-economics"
				o.FlashChannels = 8
				o.FlashBlocksPerPlane = 6
				o.FlashPagesPerBlock = 16
			},
			inflight:  48,
			warmupNs:  10_000_000,
			measureNs: 400_000_000,
			traceNs:   2_000_000,
		},
		{
			name:      "tatp-512m",
			why:       "16 cores over a 512 MB dataset: set-up cost and host heap dominate, and the working set dwarfs the host LLC",
			mode:      astriflash.AstriFlash,
			workload:  "tatp",
			cores:     16,
			datasetB:  512 << 20,
			inflight:  48,
			warmupNs:  5_000_000,
			measureNs: 10_000_000,
			traceNs:   2_000_000,
		},
	}
}

// specByName finds one workload.
func specByName(name string) (spec, error) {
	for _, s := range specs() {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// options resolves the machine configuration for a seed.
func (s spec) options(seed uint64) astriflash.Options {
	o := astriflash.DefaultOptions(s.mode, s.workload)
	o.Cores = s.cores
	o.DatasetBytes = s.datasetB
	o.RunTimeout = runTimeout
	o.Seed = seed
	if s.tune != nil {
		s.tune(&o)
	}
	return o
}

// run drives m over the workload's warmup and a measureNs window.
func (s spec) run(m *astriflash.Machine, measureNs int64) (astriflash.Metrics, error) {
	if s.overload != nil {
		r := *s.overload
		r.WarmupNs, r.MeasureNs = s.warmupNs, measureNs
		return m.RunOverload(r)
	}
	return m.RunSaturated(s.inflight, s.warmupNs, measureNs), nil
}

// dramOnly reports whether the workload must never touch flash.
func (s spec) dramOnly() bool { return s.mode == astriflash.DRAMOnly }
