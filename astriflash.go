// Package astriflash is a full-system reproduction of "AstriFlash: A
// Flash-Based System for Online Services" (HPCA 2023): a flash-backed
// memory hierarchy for online services in which DRAM is a hardware-managed
// cache holding the hot ~3% of the dataset, DRAM-cache misses trigger
// ~100 ns user-level thread switches instead of OS paging, and an in-DRAM
// Miss Status Row tracks hundreds of concurrent flash fetches.
//
// The package exposes the simulator behind the paper's evaluation: build a
// Machine for one of the seven evaluated configurations (DRAM-only,
// AstriFlash and its ablations, OS-Swap, Flash-Sync), drive it closed-loop
// for throughput or open-loop for tail latency, and read back latency
// distributions and device statistics. The Experiments API (fig*.go,
// table*.go) regenerates every figure and table in the paper's evaluation
// section.
//
// All simulation is deterministic: the same Options produce bit-identical
// results.
package astriflash

import (
	"fmt"
	"sync/atomic"
	"time"

	"astriflash/internal/dramcache"
	"astriflash/internal/loadgen"
	"astriflash/internal/overload"
	"astriflash/internal/sim"
	"astriflash/internal/system"
	"astriflash/internal/workload"
)

// Mode selects one of the paper's evaluated configurations (Section V-B).
type Mode int

// The evaluated configurations.
const (
	// DRAMOnly holds the whole dataset in DRAM: the ideal baseline.
	DRAMOnly Mode = iota
	// AstriFlash is the full proposal: hardware-managed DRAM cache,
	// switch-on-miss, priority scheduling with aging.
	AstriFlash
	// AstriFlashIdeal is AstriFlash with free thread switches.
	AstriFlashIdeal
	// AstriFlashNoPS replaces the priority scheduler with FIFO.
	AstriFlashNoPS
	// AstriFlashNoDP removes DRAM partitioning: page-table walks can hit
	// flash.
	AstriFlashNoDP
	// OSSwap is traditional demand paging over the same flash.
	OSSwap
	// FlashSync accesses flash synchronously (FlatFlash-style).
	FlashSync
)

// Modes returns all configurations in presentation order.
func Modes() []Mode {
	return []Mode{DRAMOnly, AstriFlash, AstriFlashIdeal, AstriFlashNoPS, AstriFlashNoDP, OSSwap, FlashSync}
}

// String returns the paper's name for the configuration.
func (m Mode) String() string { return m.internal().String() }

func (m Mode) internal() system.Mode {
	switch m {
	case DRAMOnly:
		return system.DRAMOnly
	case AstriFlash:
		return system.AstriFlash
	case AstriFlashIdeal:
		return system.AstriFlashIdeal
	case AstriFlashNoPS:
		return system.AstriFlashNoPS
	case AstriFlashNoDP:
		return system.AstriFlashNoDP
	case OSSwap:
		return system.OSSwap
	case FlashSync:
		return system.FlashSync
	default:
		panic(fmt.Sprintf("astriflash: unknown mode %d", int(m)))
	}
}

// Workloads returns the evaluation workload names in the paper's order:
// arrayswap, rbt, hashtable, tatp, tpcc, silo, masstree.
func Workloads() []string { return workload.Names() }

// Options configures one simulated machine. The zero value is not valid;
// start from DefaultOptions.
type Options struct {
	// Mode is the evaluated configuration.
	Mode Mode
	// Workload is one of Workloads().
	Workload string
	// Cores is the simulated core count (paper: 16).
	Cores int
	// DatasetBytes is the flash-resident dataset footprint. The paper's
	// 256 GB is scaled down; ratios (cache fraction, hot fraction) are
	// preserved.
	DatasetBytes uint64
	// CacheFraction is the DRAM-cache capacity as a fraction of the
	// dataset (paper: 0.03).
	CacheFraction float64
	// HotAccessFraction is the share of accesses served by the hot set;
	// it calibrates the paper's miss-every-5-25-us behavior.
	HotAccessFraction float64
	// WriteFraction is the probability a workload operation mutates.
	WriteFraction float64
	// SwitchCostNs is the user-level thread-switch cost (paper: 100 ns).
	SwitchCostNs int64
	// PendingLimit bounds the per-core pending queue.
	PendingLimit int
	// FlashReadNs overrides the flash cell-read latency when nonzero.
	FlashReadNs int64
	// FlashChannels overrides the device channel count when nonzero
	// (smaller devices concentrate garbage collection, Section VI-D).
	FlashChannels int
	// FlashBlocksPerPlane and FlashPagesPerBlock override the device
	// geometry when nonzero; the GC experiments size physical capacity
	// relative to the dataset so garbage collection actually runs.
	FlashBlocksPerPlane int
	FlashPagesPerBlock  int
	// LocalGC enables Tiny-Tail-style local garbage collection.
	LocalGC bool
	// CacheReplacement selects the DRAM-cache victim policy: "lru"
	// (default), "fifo", or "random" — a BC microcode knob, since the
	// backside controller is programmable (Section IV-B2).
	CacheReplacement string
	// OSShootdownBatch, for OS-Swap, coalesces this many page installs
	// into one broadcast TLB shootdown (the batching optimization the
	// paper cites in Section II-C; it reduces but does not remove the
	// scaling problem).
	OSShootdownBatch int
	// FootprintCache enables footprint fetching in the DRAM cache: only
	// the blocks a page used in its previous generation move over the
	// flash channel, trading occasional underprediction stalls for
	// bandwidth (the optimization Section II-A cites).
	FootprintCache bool
	// AdmissionPolicy selects the DRAM cache's flash-write admission
	// filter: "" or "admit-all" (no filtering), "write-threshold" (a page
	// installs once its region has proven AdmissionThreshold accesses), or
	// "hit-economics" (Flashield-style: read reuse earns admission, and
	// the bar adapts to measured eviction economics). Rejected fetches are
	// served from a small bypass ring instead of displacing residents.
	AdmissionPolicy string
	// AdmissionThreshold is the admission bar (0 = default 2): the region
	// access count a page must prove before it may install.
	AdmissionThreshold int
	// ObjectBytes sizes the tinykv workload's objects (0 = 128 B). Other
	// workloads ignore it.
	ObjectBytes uint64
	// FlashProgramNs overrides the flash cell-program latency when
	// nonzero (device classes differ in program as well as read latency).
	FlashProgramNs int64

	// RBER is the raw bit error rate injected into every flash cell read
	// (0 disables fault injection entirely; the device then never touches
	// its fault RNG and behaves bit-identically to the fault-free model).
	// Raw errors beyond the ECC correction strength push the read through
	// a retry ladder; reads that defeat every step are uncorrectable.
	RBER float64
	// ReadRetrySteps bounds the read-retry ladder depth (0 = default 4).
	ReadRetrySteps int
	// ReadRetryLatencyNs is the added sense+transfer cost per ladder step
	// (0 = half the cell-read latency).
	ReadRetryLatencyNs int64
	// PEFailProb is the per-program/erase failure probability; failures
	// retire the block and migrate its live pages (counted in write
	// amplification).
	PEFailProb float64
	// BCReadTimeoutNs arms the backside controller's per-read watchdog;
	// reads not settled within the window are re-issued (0 disables).
	BCReadTimeoutNs int64
	// BCReadRetries bounds BC re-issues after a timeout or uncorrectable
	// read before falling back to the FTL's recovered copy.
	BCReadRetries int
	// RunTimeout aborts a runaway simulation point (panic with engine
	// diagnostics) after this much wall-clock time. 0 means no limit.
	RunTimeout time.Duration

	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed uint64
}

// DefaultOptions returns the scaled Table I machine for the given
// configuration and workload.
func DefaultOptions(mode Mode, workloadName string) Options {
	sys := system.DefaultConfig(system.AstriFlash, workloadName)
	return Options{
		Mode:              mode,
		Workload:          workloadName,
		Cores:             sys.Cores,
		DatasetBytes:      sys.Workload.DatasetBytes,
		CacheFraction:     sys.DRAMCacheFraction,
		HotAccessFraction: sys.Workload.HotAccessFraction,
		WriteFraction:     sys.Workload.WriteFraction,
		SwitchCostNs:      sys.Sched.SwitchCost,
		PendingLimit:      sys.Sched.PendingLimit,
		Seed:              sys.Seed,
	}
}

// build converts Options into the internal system configuration.
func (o Options) build() (system.Config, error) {
	if o.Workload == "" {
		return system.Config{}, fmt.Errorf("astriflash: no workload selected")
	}
	cfg := system.DefaultConfig(o.Mode.internal(), o.Workload)
	if o.Cores > 0 {
		cfg.Cores = o.Cores
	}
	if o.DatasetBytes > 0 {
		cfg.Workload.DatasetBytes = o.DatasetBytes
	}
	if o.CacheFraction > 0 {
		cfg.DRAMCacheFraction = o.CacheFraction
	}
	if o.HotAccessFraction > 0 {
		cfg.Workload.HotAccessFraction = o.HotAccessFraction
	}
	if o.WriteFraction > 0 {
		cfg.Workload.WriteFraction = o.WriteFraction
	}
	if o.SwitchCostNs > 0 {
		cfg.Sched.SwitchCost = o.SwitchCostNs
	}
	if o.PendingLimit > 0 {
		cfg.Sched.PendingLimit = o.PendingLimit
	}
	if o.FlashReadNs > 0 {
		cfg.Flash.ReadLatency = o.FlashReadNs
	}
	if o.FlashProgramNs > 0 {
		cfg.Flash.ProgramLatency = o.FlashProgramNs
	}
	if o.ObjectBytes > 0 {
		cfg.Workload.ObjectBytes = o.ObjectBytes
	}
	switch o.AdmissionPolicy {
	case "", "admit-all", "write-threshold", "hit-economics":
		cfg.Admission = dramcache.AdmissionConfig{
			Policy:    o.AdmissionPolicy,
			Threshold: o.AdmissionThreshold,
		}
	default:
		return system.Config{}, fmt.Errorf("astriflash: unknown admission policy %q", o.AdmissionPolicy)
	}
	if o.FlashChannels > 0 {
		cfg.Flash.Channels = o.FlashChannels
		cfg.FlashFixed = true
	}
	if o.FlashBlocksPerPlane > 0 {
		cfg.Flash.BlocksPerPlane = o.FlashBlocksPerPlane
	}
	if o.FlashPagesPerBlock > 0 {
		cfg.Flash.PagesPerBlock = o.FlashPagesPerBlock
	}
	cfg.Flash.LocalGC = o.LocalGC
	cfg.Flash.RBER = o.RBER
	if o.ReadRetrySteps > 0 {
		cfg.Flash.ReadRetrySteps = o.ReadRetrySteps
	}
	if o.ReadRetryLatencyNs > 0 {
		cfg.Flash.ReadRetryLatency = o.ReadRetryLatencyNs
	}
	cfg.Flash.PEFailProb = o.PEFailProb
	cfg.FlashReadTimeoutNs = o.BCReadTimeoutNs
	cfg.FlashReadRetries = o.BCReadRetries
	cfg.RunDeadline = o.RunTimeout
	cfg.FootprintCache = o.FootprintCache
	if o.OSShootdownBatch > 0 {
		cfg.OSCosts.ShootdownBatch = o.OSShootdownBatch
	}
	switch o.CacheReplacement {
	case "", "lru":
	case "fifo":
		cfg.CacheReplacement = dramcache.ReplFIFO
	case "random":
		cfg.CacheReplacement = dramcache.ReplRandom
	default:
		return system.Config{}, fmt.Errorf("astriflash: unknown replacement policy %q", o.CacheReplacement)
	}
	if o.Seed != 0 {
		cfg.Seed = o.Seed
		cfg.Workload.Seed = o.Seed
	}
	return cfg, nil
}

// Metrics summarizes one run's measurement window.
type Metrics struct {
	Mode     string
	Workload string

	// SimulatedNs is the measured window of simulated time.
	SimulatedNs int64
	// Jobs is the number of requests completed in the window.
	Jobs uint64
	// ThroughputJPS is completed requests per simulated second.
	ThroughputJPS float64

	// Latency percentiles in nanoseconds. Service covers first-schedule
	// to completion (includes flash waits, excludes queue time); Response
	// covers arrival to completion.
	MeanServiceNs, P50ServiceNs, P99ServiceNs int64
	P50ResponseNs, P99ResponseNs              int64
	P50QueueNs, P99QueueNs                    int64

	// DRAMCacheMissRatio is misses over DRAM-cache accesses in the
	// window.
	DRAMCacheMissRatio float64
	// MeanMissIntervalNs is the average per-core spacing between DRAM-
	// cache misses (the paper's 5-25 us calibration target).
	MeanMissIntervalNs int64

	FlashReads, FlashWrites uint64
	GCRuns                  uint64
	GCBlockedFraction       float64
	ForcedSyncCount         uint64
	// P99FlashReadNs is the device-level read tail (queueing + retry
	// ladder + channel transfer), cumulative over the run.
	P99FlashReadNs int64

	// Fault-injection observables; all zero when RBER and PEFailProb are 0.
	FlashRetriedReads   uint64
	FlashUncorrectables uint64
	FlashRecovered      uint64
	FlashRemapMoves     uint64
	FlashBadBlocks      uint64
	BCRetries           uint64
	BCTimeouts          uint64
	BCFallbacks         uint64
	WriteAmplification  float64

	// Admission-filter observables; all zero under admit-all.
	AdmissionBypassed uint64 // fetches diverted to the bypass ring
	BypassHits        uint64 // accesses served from the bypass ring
	BypassWritebacks  uint64 // dirty ring evictions written to flash
	// FlashPrograms is total page programs in the window (host writes +
	// GC moves + remap copies) — the wear quantity the economics model
	// prices.
	FlashPrograms uint64

	// Open-loop admission and deadline observables (RunOverload runs; all
	// zero for closed-loop and plain Poisson runs).
	Offered        uint64 // arrivals the source generated in the window
	Admitted       uint64 // arrivals past the front door
	AdmissionSheds uint64 // rejected by the admission controller
	QueueFullDrops uint64 // rejected by the bounded admission queue
	ExpiredDrops   uint64 // shed at dispatch: deadline passed while queued
	DeadlineMisses uint64 // served, but past their deadline
	GoodJobs       uint64 // served within their deadline
	ExpiredInFlash uint64 // deadline expired during a flash wait
	// GoodputJPS is within-deadline completions per simulated second
	// (zero when the run had no deadlines).
	GoodputJPS float64

	// Counters is the metrics registry's full window view: every
	// registered counter's delta over the measurement window, keyed by
	// dotted name (system.*, dramcache.*, flash.*, uthread.coreN.*). The
	// named fields above are stable views into the same registry.
	Counters map[string]uint64
}

func fromResult(r system.Result) Metrics {
	return Metrics{
		Mode:               r.Mode,
		Workload:           r.Workload,
		SimulatedNs:        r.SimulatedNs,
		Jobs:               r.Jobs,
		ThroughputJPS:      r.ThroughputJPS,
		MeanServiceNs:      r.MeanServiceNs,
		P50ServiceNs:       r.P50ServiceNs,
		P99ServiceNs:       r.P99ServiceNs,
		P50ResponseNs:      r.P50RespNs,
		P99ResponseNs:      r.P99RespNs,
		P50QueueNs:         r.P50QueueNs,
		P99QueueNs:         r.P99QueueNs,
		DRAMCacheMissRatio: r.DRAMCacheMissRatio,
		MeanMissIntervalNs: r.MeanMissIntervalNs,
		FlashReads:         r.FlashReads,
		FlashWrites:        r.FlashWrites,
		GCRuns:             r.GCRuns,
		GCBlockedFraction:  r.GCBlockedFraction,
		ForcedSyncCount:    r.ForcedSyncCount,
		P99FlashReadNs:     r.P99FlashReadNs,

		FlashRetriedReads:   r.FlashRetriedReads,
		FlashUncorrectables: r.FlashUncorrectables,
		FlashRecovered:      r.FlashRecovered,
		FlashRemapMoves:     r.FlashRemapMoves,
		FlashBadBlocks:      r.FlashBadBlocks,
		BCRetries:           r.BCRetries,
		BCTimeouts:          r.BCTimeouts,
		BCFallbacks:         r.BCFallbacks,
		WriteAmplification:  r.WriteAmplification,
		AdmissionBypassed:   r.AdmissionBypassed,
		BypassHits:          r.BypassHits,
		BypassWritebacks:    r.BypassWritebacks,
		FlashPrograms:       r.FlashPrograms,

		Offered:        r.Offered,
		Admitted:       r.Admitted,
		AdmissionSheds: r.AdmissionSheds,
		QueueFullDrops: r.QueueFullDrops,
		ExpiredDrops:   r.ExpiredDrops,
		DeadlineMisses: r.DeadlineMisses,
		GoodJobs:       r.GoodJobs,
		ExpiredInFlash: r.ExpiredInFlash,
		GoodputJPS:     r.GoodputJPS,

		Counters: r.Counters,
	}
}

// simRuns counts completed simulation points process-wide (each Machine
// run is one point). cmd/astribench reports it as points/sec so sweep
// parallelism is visible.
var simRuns atomic.Uint64

// SimRuns returns the number of simulation points this process has
// completed so far. It is safe to read concurrently with running sweeps.
func SimRuns() uint64 { return simRuns.Load() }

// Machine is one assembled simulated system.
type Machine struct {
	sys *system.System
	// lastProf self-profiles the most recent run (selfprof.go).
	lastProf RunProfile
}

// NewMachine builds the machine (including its workload dataset, which
// for tree/table workloads means constructing the actual structures).
func NewMachine(o Options) (*Machine, error) {
	cfg, err := o.build()
	if err != nil {
		return nil, err
	}
	sys, err := system.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Machine{sys: sys}, nil
}

// RunSaturated drives the machine closed-loop at full load — the paper's
// "large job queue" methodology for maximum throughput (Figure 9) — with
// inflight requests outstanding per core, for warmupNs of cache warming
// followed by a measureNs window.
func (m *Machine) RunSaturated(inflight int, warmupNs, measureNs int64) Metrics {
	return m.profiled(func() system.Result {
		return m.sys.RunClosedLoop(inflight, warmupNs, measureNs)
	})
}

// RunPoisson drives the machine open-loop with Poisson arrivals at the
// given mean inter-arrival gap (nanoseconds, across the whole machine) —
// the paper's tail-latency methodology (Figure 10).
func (m *Machine) RunPoisson(meanGapNs float64, warmupNs, measureNs int64) Metrics {
	return m.profiled(func() system.Result {
		return m.sys.RunOpenLoop(meanGapNs, warmupNs, measureNs)
	})
}

// OverloadRun configures one open-loop overload measurement: an arrival
// shape, an admission policy, and deadline semantics. Unlike RunPoisson,
// the source keeps sending at the offered rate when the machine falls
// behind, so it can drive the system past its knee.
type OverloadRun struct {
	// Shape selects the arrival process: "poisson" (default), "mmpp"
	// (bursty on/off), "diurnal" (sinusoidal rate curve), or
	// "flashcrowd" (rate step).
	Shape string
	// MeanGapNs is the mean inter-arrival gap across the whole machine;
	// the offered load is 1e9/MeanGapNs jobs/s.
	MeanGapNs float64
	// Burstiness and DwellNs shape the MMPP: the rate split between the
	// burst and calm states (in [0,1)) and the mean state dwell time.
	Burstiness float64
	DwellNs    float64
	// Amplitude and PeriodNs shape the diurnal curve.
	Amplitude float64
	PeriodNs  float64
	// Surge, SurgeStartNs, SurgeDurNs shape the flash crowd: the rate
	// multiplier and the window it applies over.
	Surge        float64
	SurgeStartNs float64
	SurgeDurNs   float64

	// Controller selects the admission policy: "none" (default),
	// "static" (concurrency limit), or "codel" (adaptive shedding on
	// queueing delay).
	Controller string
	// StaticLimit is the static controller's in-system concurrency bound.
	StaticLimit int
	// CoDelTargetNs/CoDelIntervalNs tune the adaptive controller
	// (defaults: 50 us target, 1 ms interval).
	CoDelTargetNs   int64
	CoDelIntervalNs int64

	// QueueLimit bounds requests awaiting first dispatch (0 = unbounded);
	// arrivals past the bound are dropped and counted.
	QueueLimit int
	// DeadlineNs stamps each admitted request with arrival+DeadlineNs;
	// completions split into good jobs and deadline misses.
	DeadlineNs int64
	// DropExpired sheds requests whose deadline passed while they queued,
	// instead of serving them late. ExpiryMarginNs tightens the test:
	// requests with less budget than the margin left at first dispatch
	// are shed too, since they could only finish in time by beating the
	// service tail.
	DropExpired    bool
	ExpiryMarginNs int64

	WarmupNs  int64
	MeasureNs int64
}

// source translates the run spec into the internal driver configuration.
func (r OverloadRun) source() (system.SourceConfig, error) {
	if r.MeanGapNs <= 0 {
		return system.SourceConfig{}, fmt.Errorf("astriflash: overload run needs a positive mean gap")
	}
	if r.DropExpired && r.DeadlineNs <= 0 {
		return system.SourceConfig{}, fmt.Errorf("astriflash: DropExpired needs a positive DeadlineNs")
	}
	var arrivals func(rng *sim.RNG) loadgen.Arrivals
	var err error
	switch r.Shape {
	case "", "poisson":
		arrivals = func(rng *sim.RNG) loadgen.Arrivals { return loadgen.NewPoisson(rng, r.MeanGapNs) }
	case "mmpp":
		err = loadgen.CheckMMPP(r.MeanGapNs, r.Burstiness, r.DwellNs)
		arrivals = func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewMMPP(rng, r.MeanGapNs, r.Burstiness, r.DwellNs)
		}
	case "diurnal":
		err = loadgen.CheckDiurnal(r.MeanGapNs, r.Amplitude, r.PeriodNs)
		arrivals = func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewDiurnal(rng, r.MeanGapNs, r.Amplitude, r.PeriodNs)
		}
	case "flashcrowd":
		err = loadgen.CheckFlashCrowd(r.MeanGapNs, r.Surge, r.SurgeStartNs, r.SurgeDurNs)
		arrivals = func(rng *sim.RNG) loadgen.Arrivals {
			return loadgen.NewFlashCrowd(rng, r.MeanGapNs, r.Surge, r.SurgeStartNs, r.SurgeDurNs)
		}
	default:
		err = fmt.Errorf("astriflash: unknown arrival shape %q", r.Shape)
	}
	if err != nil {
		return system.SourceConfig{}, err
	}
	var ctl overload.Controller
	switch r.Controller {
	case "", "none":
	case "static":
		if r.StaticLimit < 1 {
			return system.SourceConfig{}, fmt.Errorf("astriflash: static controller needs a positive limit")
		}
		ctl = overload.NewStatic(r.StaticLimit)
	case "codel":
		target, interval := r.CoDelTargetNs, r.CoDelIntervalNs
		if target <= 0 {
			target = 50_000
		}
		if interval <= 0 {
			interval = 1_000_000
		}
		ctl = overload.NewCoDel(target, interval)
	default:
		return system.SourceConfig{}, fmt.Errorf("astriflash: unknown admission controller %q", r.Controller)
	}
	return system.SourceConfig{
		Arrivals:       arrivals,
		Controller:     ctl,
		QueueLimit:     r.QueueLimit,
		DeadlineNs:     r.DeadlineNs,
		DropExpired:    r.DropExpired,
		ExpiryMarginNs: r.ExpiryMarginNs,
		WarmupNs:       r.WarmupNs,
		MeasureNs:      r.MeasureNs,
	}, nil
}

// RunOverload drives the machine with an open-loop source through
// admission control — the overload methodology: offered load is set by
// the source, not by the machine's ability to absorb it.
func (m *Machine) RunOverload(r OverloadRun) (Metrics, error) {
	src, err := r.source()
	if err != nil {
		return Metrics{}, err
	}
	return m.profiled(func() system.Result {
		return m.sys.RunSource(src)
	}), nil
}

// Run is the one-call convenience: build a machine from Options and run
// it saturated with defaults sized for a quick, meaningful measurement.
func Run(o Options) (Metrics, error) {
	m, err := NewMachine(o)
	if err != nil {
		return Metrics{}, err
	}
	return m.RunSaturated(48, 10_000_000, 20_000_000), nil
}
