// Package system assembles the full AstriFlash machine: cores with
// on-chip hierarchies and TLBs, the hardware-managed DRAM cache (FC/BC/
// MSR), the flash device, the user-level thread scheduler, and the OS
// paging baseline — one assembly per evaluated configuration (paper
// Section V-B). It provides closed-loop drivers for throughput (Figure 9)
// and open-loop Poisson drivers for tail latency (Figure 10, Table II).
package system

import (
	"fmt"
	"slices"
	"time"

	"astriflash/internal/cachehier"
	"astriflash/internal/cpu"
	"astriflash/internal/dram"
	"astriflash/internal/dramcache"
	"astriflash/internal/flash"
	"astriflash/internal/loadgen"
	"astriflash/internal/mem"
	"astriflash/internal/obs"
	"astriflash/internal/obs/timeline"
	"astriflash/internal/ospaging"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
	"astriflash/internal/tlbvm"
	"astriflash/internal/uthread"
	"astriflash/internal/workload"
)

// Mode selects the evaluated configuration.
type Mode int

// The seven configurations of Section V-B.
const (
	DRAMOnly Mode = iota
	AstriFlash
	AstriFlashIdeal
	AstriFlashNoPS
	AstriFlashNoDP
	OSSwap
	FlashSync
)

// Modes lists all configurations in the paper's presentation order.
func Modes() []Mode {
	return []Mode{DRAMOnly, AstriFlash, AstriFlashIdeal, AstriFlashNoPS, AstriFlashNoDP, OSSwap, FlashSync}
}

func (m Mode) String() string {
	switch m {
	case DRAMOnly:
		return "DRAM-only"
	case AstriFlash:
		return "AstriFlash"
	case AstriFlashIdeal:
		return "AstriFlash-Ideal"
	case AstriFlashNoPS:
		return "AstriFlash-noPS"
	case AstriFlashNoDP:
		return "AstriFlash-noDP"
	case OSSwap:
		return "OS-Swap"
	case FlashSync:
		return "Flash-Sync"
	default:
		return fmt.Sprintf("Mode(%d)", int(m))
	}
}

// usesUserThreads reports whether the mode runs the user-level scheduler.
func (m Mode) usesUserThreads() bool {
	switch m {
	case AstriFlash, AstriFlashIdeal, AstriFlashNoPS, AstriFlashNoDP:
		return true
	default:
		return false
	}
}

// Config describes a full system.
type Config struct {
	Mode         Mode
	Cores        int
	WorkloadName string
	Workload     workload.Config
	// CustomWorkload, when non-nil, overrides WorkloadName: the system
	// runs this generator instead (trace replay, user-supplied
	// workloads).
	CustomWorkload workload.Workload

	// DRAMCacheFraction is the DRAM-to-dataset capacity ratio (paper: 3%).
	DRAMCacheFraction float64

	DRAMTiming   dram.Timing
	DRAMGeometry dram.Geometry
	Flash        flash.Config
	// FlashFixed suppresses the automatic scaling of flash channels with
	// core count; set when the caller chose the device geometry.
	FlashFixed bool
	// FootprintCache enables the footprint-fetch extension in the DRAM
	// cache (Section II-A's bandwidth optimization).
	FootprintCache bool
	// CacheReplacement selects the DRAM-cache victim policy.
	CacheReplacement dramcache.Replacement
	Hier             cachehier.HierConfig
	TLB              tlbvm.TLBConfig
	Sched            uthread.Config
	OSCosts          ospaging.Costs
	Shootdown        tlbvm.ShootdownModel
	CPU              cpu.Config

	// FlashReadTimeoutNs arms the backside controller's per-read watchdog
	// (0 disables it); FlashReadRetries bounds BC re-issues after a timeout
	// or uncorrectable before falling back to the FTL's recovered copy.
	FlashReadTimeoutNs int64
	FlashReadRetries   int

	// Admission selects the DRAM cache's flash-write admission policy
	// (dramcache.AdmissionConfig); the zero value is admit-all.
	Admission dramcache.AdmissionConfig

	// RunDeadline aborts the simulation (with engine diagnostics) if a
	// single run exceeds this much wall-clock time. 0 means no deadline.
	RunDeadline time.Duration

	// FlatPTAccessNs prices one page-table level in the flat DRAM
	// partition (all modes except noDP).
	FlatPTAccessNs int64
	// PTFanoutLog is log2 of page-table node fanout. 9 is the real
	// 512-ary layout; scaled datasets use 4 so the table's working set
	// scales with the dataset (see tlbvm.NewPageTableFanout).
	PTFanoutLog uint

	Seed uint64
}

// DefaultConfig returns the Table I system scaled for simulation: 16
// cores, 3% DRAM cache, with the workload's scaled dataset standing in
// for the paper's 256 GB.
func DefaultConfig(mode Mode, workloadName string) Config {
	return Config{
		Mode:              mode,
		Cores:             16,
		WorkloadName:      workloadName,
		Workload:          workload.DefaultConfig(),
		DRAMCacheFraction: 0.03,
		DRAMTiming:        dram.DefaultTiming(),
		DRAMGeometry:      dram.DefaultGeometry(),
		Flash:             flash.DefaultConfig(), // channels rescaled in New
		Hier:              scaledHierConfig(),
		TLB:               tlbvm.TLBConfig{Sets: 64, Ways: 4, HitLatency: 1},
		Sched:             uthread.DefaultConfig(),
		OSCosts:           ospaging.DefaultCosts(),
		Shootdown:         tlbvm.DefaultShootdownModel(),
		CPU:               cpu.DefaultConfig(),
		FlatPTAccessNs:    60,
		PTFanoutLog:       4,
		Seed:              0xa57f,
	}
}

// scaledHierConfig shrinks the per-core LLC in proportion to the scaled
// dataset: the paper's 1 MB/core over 256 GB is ~0.006% of the dataset,
// so a 32 MB scaled dataset pairs with a ~32 KB LLC to preserve the
// relative filtering the DRAM cache sees.
func scaledHierConfig() cachehier.HierConfig {
	cfg := cachehier.DefaultHierConfig()
	cfg.LLCSets = 64
	cfg.LLCWays = 8
	return cfg
}

// Validate rejects inconsistent configurations.
func (c Config) Validate() error {
	if !slices.Contains(Modes(), c.Mode) {
		return fmt.Errorf("system: unknown mode %d", int(c.Mode))
	}
	if c.Cores < 1 {
		return fmt.Errorf("system: need at least one core")
	}
	if c.DRAMCacheFraction <= 0 || c.DRAMCacheFraction > 1 {
		return fmt.Errorf("system: DRAM cache fraction %v out of (0,1]", c.DRAMCacheFraction)
	}
	if c.FlatPTAccessNs < 0 {
		return fmt.Errorf("system: negative flat page-table access latency %d ns", c.FlatPTAccessNs)
	}
	if c.CPU.FlushBase < 0 || c.CPU.FlushPerEntry < 0 || c.CPU.ROBEntries < 0 {
		return fmt.Errorf("system: negative pipeline-flush parameter (FlushBase %d, FlushPerEntry %d, ROBEntries %d)",
			c.CPU.FlushBase, c.CPU.FlushPerEntry, c.CPU.ROBEntries)
	}
	if _, err := dramcache.NewAdmissionPolicy(c.Admission); err != nil {
		return err
	}
	if err := c.Flash.Validate(); err != nil {
		return err
	}
	if c.CustomWorkload == nil {
		if err := c.Workload.Validate(); err != nil {
			return err
		}
	}
	return c.OSCosts.Validate()
}

// System is one assembled machine.
type System struct {
	cfg   Config
	eng   *sim.Engine
	rng   *sim.RNG
	wl    workload.Workload
	dram  *dram.Device
	flash *flash.Device
	dc    *dramcache.Cache
	cores []*coreState

	kernel *ospaging.Kernel
	pt     *tlbvm.PageTable

	recorder *loadgen.Recorder
	// measuring gates statistics to the measurement window.
	measuring bool
	// mStart/mEnd delimit the measurement window in simulated time so
	// flattened code can gate observation by logical event time instead
	// of the clock-driven measuring flag (measuredAt in observe.go). Set
	// by the drivers before any event runs.
	mStart, mEnd sim.Time
	// flatWalkNs is the deterministic page-table walk latency for modes
	// with the flat DRAM partition; 0 for noDP, where walks go through
	// the DRAM cache and stay event-simulated.
	flatWalkNs int64
	// jobPool recycles retired jobState records and their step slices.
	jobPool []*jobState
	// onJobDone, when set by a driver, fires after each completion
	// (closed-loop replenishment).
	onJobDone func(c *coreState)
	// onJobStart, when set by a driver, fires when a request begins its
	// first service (the sojourn signal admission controllers feed on).
	onJobStart func(job *jobState)
	// dropExpired sheds past-deadline requests at first dispatch instead
	// of serving them late (set by the open-loop source driver);
	// expiryMarginNs additionally sheds requests with less than this
	// much budget remaining at dispatch (SourceConfig.ExpiryMarginNs).
	dropExpired    bool
	expiryMarginNs int64

	// attr accumulates latency attribution during measurement.
	attr attribution

	// metrics names every component counter/gauge/histogram (observe.go).
	metrics *obs.Registry
	// trace, when non-nil, receives lifecycle spans during measurement.
	trace *obs.Tracer
	// sampler, when non-nil, is armed over the measurement window to
	// record the registry as per-window time series (observe.go).
	sampler *timeline.Sampler
	// reqSeq numbers requests so spans can be correlated per request.
	reqSeq uint64

	JobsDone     stats.Counter
	MissSignals  stats.Counter
	ForcedSync   stats.Counter
	MissInterval *stats.Histogram // per-core time between DRAM-cache misses

	// Open-loop admission and deadline accounting (RunSource; all zero
	// for closed-loop and unlimited open-loop runs).
	Admitted       stats.Counter // requests past the front door
	AdmissionSheds stats.Counter // rejected by the admission controller
	QueueFullDrops stats.Counter // rejected by the bounded admission queue
	ExpiredDrops   stats.Counter // shed at dispatch: deadline passed while queued
	DeadlineMisses stats.Counter // served, but past their deadline
	GoodJobs       stats.Counter // served within their deadline
	ExpiredInFlash stats.Counter // deadline expired during a flash wait
}

// New builds the system and its workload dataset.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	wl := cfg.CustomWorkload
	if wl == nil {
		var err error
		wl, err = workload.New(cfg.WorkloadName, cfg.Workload)
		if err != nil {
			return nil, err
		}
	}
	eng := sim.NewEngine()
	dev := dram.NewDevice(cfg.DRAMTiming, cfg.DRAMGeometry)
	// Provision flash bandwidth with the core count, as the paper does
	// (Section II-A: 60 GB/s for 64 cores via multiple SSDs). Four
	// planes per core keeps read utilization below ~30% at the 5-25 us
	// miss cadence. Explicit channel overrides are respected.
	if !cfg.FlashFixed && cfg.Flash.Channels == flash.DefaultConfig().Channels &&
		3*cfg.Cores > cfg.Flash.Channels {
		cfg.Flash.Channels = 3 * cfg.Cores
	}

	datasetPages := wl.DatasetPages()
	// Page tables live right above the dataset in the flash-mapped
	// physical address space, so the device must cover both. Sizing is
	// decided before the device is built: the flash address space no
	// longer wraps, so a too-small geometry is grown (keeping the chosen
	// channel/plane parallelism) instead of silently aliasing LPNs.
	ptFan := cfg.PTFanoutLog
	if ptFan == 0 {
		ptFan = 9
	}
	pt := tlbvm.NewPageTableFanout(datasetPages, mem.PageNum(datasetPages), ptFan)
	for cfg.Flash.BlocksPerPlane > 0 &&
		cfg.Flash.LogicalPages() < datasetPages+pt.TotalPages() {
		cfg.Flash.BlocksPerPlane *= 2
	}
	// Fault injection draws from a device-local stream derived from the
	// run seed; fault-free devices never consult it.
	if cfg.Flash.Seed == 0 {
		cfg.Flash.Seed = cfg.Seed
	}
	// Scaling channels with the core count, or blocks with the dataset,
	// can take the geometry past what 32-bit block owners address.
	if err := cfg.Flash.Validate(); err != nil {
		return nil, err
	}
	fl := flash.NewDevice(eng, cfg.Flash)
	cachePages := uint64(float64(datasetPages) * cfg.DRAMCacheFraction)
	dcCfg := dramcache.DefaultConfig(roundUpWays(cachePages, 16))
	dcCfg.Replacement = cfg.CacheReplacement
	dcCfg.FlashReadTimeoutNs = cfg.FlashReadTimeoutNs
	dcCfg.FlashReadRetries = cfg.FlashReadRetries
	dcCfg.Admission = cfg.Admission
	dc := dramcache.New(eng, dcCfg, dev, fl)
	if cfg.FootprintCache {
		dc.EnableFootprint(dramcache.DefaultFootprintConfig())
	}

	s := &System{
		cfg:          cfg,
		eng:          eng,
		rng:          sim.NewRNG(cfg.Seed),
		wl:           wl,
		dram:         dev,
		flash:        fl,
		dc:           dc,
		recorder:     loadgen.NewRecorder(),
		MissInterval: stats.NewHistogram(),
	}
	s.pt = pt
	if cfg.Mode != AstriFlashNoDP {
		s.flatWalkNs = int64(pt.Levels()) * cfg.FlatPTAccessNs
	}
	// Retry-ladder and recovery time surfaces as its own attribution
	// bucket (a sub-slice of flash-wait, zero when faults are off).
	fl.RetryHook = func(ns int64) { s.attr.add(s, attrFlashRetry, ns) }
	if cfg.RunDeadline > 0 {
		eng.Deadline(cfg.RunDeadline)
	}

	if cfg.Mode == OSSwap {
		s.kernel = ospaging.NewKernel(eng, cfg.OSCosts, cfg.Shootdown, cfg.Cores)
	}

	for i := 0; i < cfg.Cores; i++ {
		s.cores = append(s.cores, s.newCore(i))
	}
	s.metrics = obs.NewRegistry()
	s.registerMetrics()
	// The DRAM cache is a memory-side cache (Knights-Landing style): it
	// is not inclusive of the on-chip hierarchy, so evictions do NOT
	// invalidate LLC copies. Dirty on-chip lines whose page has left the
	// DRAM cache are forwarded to flash by the writeback sink.
	return s, nil
}

func roundUpWays(pages, ways uint64) uint64 {
	if pages < ways {
		return ways
	}
	return (pages + ways - 1) / ways * ways
}

// Engine exposes the simulation clock for drivers and tests.
func (s *System) Engine() *sim.Engine { return s.eng }

// DRAMCache exposes the cache for inspection.
func (s *System) DRAMCache() *dramcache.Cache { return s.dc }

// Flash exposes the device for inspection.
func (s *System) Flash() *flash.Device { return s.flash }

// Workload exposes the generator.
func (s *System) Workload() workload.Workload { return s.wl }

// Recorder exposes latency distributions.
func (s *System) Recorder() *loadgen.Recorder { return s.recorder }

// Kernel exposes the OS model (OS-Swap mode only; nil otherwise).
func (s *System) Kernel() *ospaging.Kernel { return s.kernel }
