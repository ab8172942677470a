// Package workload implements the paper's evaluation workloads (Section
// V-A) as real data structures over the simulated-memory arena: Array
// Swap, Red-Black Tree, Hash Table, TATP and TPC-C database transactions,
// and the Tailbench pair — Silo (an OCC transaction engine) and Masstree
// (a trie of B+-trees). Every operation walks the actual structure; the
// page-access trace a job emits is the trace the memory hierarchy
// simulates.
package workload

import (
	"fmt"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// Step is one unit of job execution: compute time followed by one memory
// reference.
type Step struct {
	ComputeNs int64
	Access    mem.Access
}

// Workload generates jobs against a fixed dataset.
type Workload interface {
	// Name returns the workload's short identifier.
	Name() string
	StepReuser
	// DatasetPages returns the dataset footprint backing flash must hold.
	DatasetPages() uint64
}

// StepReuser generates a workload's jobs: NewJobSteps writes the next
// request's step trace into buf's backing array (growing it only when a
// job outsizes every previous one), so a hot loop that passes its last
// trace back in allocates nothing per job. A nil buf gets a fresh slice.
type StepReuser interface {
	NewJobSteps(buf []Step) []Step
}

// Tracer collects the access trace a data-structure operation produces.
// Structures call Touch for every node they visit; the per-access compute
// cost models the instructions executed between references. A nil
// *Tracer records nothing: builds pass nil, since no one reads their
// trace.
type Tracer struct {
	steps     []Step
	computeNs int64
}

// NewTracer returns a tracer charging computeNs per access.
func NewTracer(computeNs int64) *Tracer {
	if computeNs <= 0 {
		panic(fmt.Sprintf("workload: compute per access %d must be positive", computeNs))
	}
	return &Tracer{computeNs: computeNs}
}

// Reset re-arms the tracer to record into buf (truncated to length zero),
// charging computeNs per access. The trace returned by Take aliases buf's
// backing array.
func (t *Tracer) Reset(computeNs int64, buf []Step) {
	if computeNs <= 0 {
		panic(fmt.Sprintf("workload: compute per access %d must be positive", computeNs))
	}
	t.computeNs = computeNs
	t.steps = buf[:0]
}

// Touch records one reference.
func (t *Tracer) Touch(a mem.Addr, write bool) {
	if t == nil {
		return
	}
	t.steps = append(t.steps, Step{ComputeNs: t.computeNs, Access: mem.Access{Addr: a, Write: write}})
}

// Compute records extra computation with no memory reference by charging
// it to the previous step (pure compute between accesses).
func (t *Tracer) Compute(ns int64) {
	if t == nil {
		return
	}
	if len(t.steps) == 0 {
		t.steps = append(t.steps, Step{ComputeNs: ns, Access: mem.Access{}})
		return
	}
	t.steps[len(t.steps)-1].ComputeNs += ns
}

// Take returns the accumulated trace and resets the tracer.
func (t *Tracer) Take() []Step {
	s := t.steps
	t.steps = nil
	return s
}

// Config is shared workload tuning.
type Config struct {
	// DatasetBytes is the target dataset footprint.
	DatasetBytes uint64
	// ZipfTheta is the access skew (Section V-A models accesses with an
	// analytical Zipfian distribution).
	ZipfTheta float64
	// HotFraction sizes the hot set as a fraction of the dataset; the
	// paper's two-tier design hinges on a ~3% hot fraction matching the
	// DRAM-cache capacity (Section II-A).
	HotFraction float64
	// HotAccessFraction is the share of accesses served by the hot set,
	// calibrated so DRAM-cache misses arrive every 5-25 us.
	HotAccessFraction float64
	// ComputePerAccessNs calibrates instructions-per-reference so that
	// DRAM-cache misses arrive every 5-25 us at the 3% cache ratio.
	ComputePerAccessNs int64
	// OpsPerJob scales request length (jobs take 10-100 us, Section
	// IV-D2).
	OpsPerJob int
	// WriteFraction is the probability an operation mutates.
	WriteFraction float64
	// ObjectBytes sizes the tinykv workload's objects (0 = its 128 B
	// default). Tiny objects scatter writes across many distinct flash
	// pages, the Nemo-style regime where write amplification moves.
	ObjectBytes uint64
	// Seed derives all workload-local randomness.
	Seed uint64
}

// DefaultConfig returns a scaled dataset suitable for CI-speed runs:
// 32 MB datasets keep build times in milliseconds while preserving the
// dataset-to-cache ratio that drives the paper's results.
func DefaultConfig() Config {
	return Config{
		DatasetBytes:       32 << 20,
		ZipfTheta:          0.99,
		HotFraction:        0.03,
		HotAccessFraction:  0.96,
		ComputePerAccessNs: 150,
		OpsPerJob:          8,
		WriteFraction:      0.1,
		Seed:               0x5eed,
	}
}

// MaxDatasetBytes is the largest dataset a workload accepts (4 TiB): a
// B+-tree node records its arena page in 32 bits and names other nodes
// by int32 slab index, and TPC-C's arena spans twice its dataset, so
// every arena page must number below 2^31.
const MaxDatasetBytes = 1 << (31 + mem.PageShift - 1)

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.DatasetBytes < mem.PageSize {
		return fmt.Errorf("workload: dataset %d below one page", c.DatasetBytes)
	}
	if c.DatasetBytes > MaxDatasetBytes {
		return fmt.Errorf("workload: dataset %d bytes above the %d a B+-tree node's 32-bit page and slab index address",
			c.DatasetBytes, uint64(MaxDatasetBytes))
	}
	if c.ZipfTheta <= 0 || c.ZipfTheta >= 1 {
		return fmt.Errorf("workload: zipf theta %v out of (0,1)", c.ZipfTheta)
	}
	if c.HotFraction <= 0 || c.HotFraction >= 1 {
		return fmt.Errorf("workload: hot fraction %v out of (0,1)", c.HotFraction)
	}
	if c.HotAccessFraction <= 0 || c.HotAccessFraction >= 1 {
		return fmt.Errorf("workload: hot access fraction %v out of (0,1)", c.HotAccessFraction)
	}
	if c.ComputePerAccessNs <= 0 || c.OpsPerJob <= 0 {
		return fmt.Errorf("workload: compute %d and ops %d must be positive",
			c.ComputePerAccessNs, c.OpsPerJob)
	}
	if c.WriteFraction < 0 || c.WriteFraction > 1 {
		return fmt.Errorf("workload: write fraction %v out of [0,1]", c.WriteFraction)
	}
	return nil
}

// Registry builds each paper workload by name.
var builders = map[string]func(Config) Workload{}

// coldScale calibrates each workload's cold-access share so that, at the
// default compute cost, its DRAM-cache miss cadence lands in the paper's
// 5-25 us band (Section V-A): short-operation workloads access memory
// faster and need a proportionally smaller cold share.
var coldScale = map[string]float64{
	"arrayswap": 0.75,
	"rbt":       0.5,
	"hashtable": 0.5,
}

func register(name string, b func(Config) Workload) {
	builders[name] = b
}

// Names returns the registered workload names in the paper's Figure 9
// order.
func Names() []string {
	return []string{"arrayswap", "rbt", "hashtable", "tatp", "tpcc", "silo", "masstree"}
}

// minDatasetBytes is, per workload, the smallest dataset (in whole KiB)
// it accepts. Below it, each builder's fixed floor outgrows the arena:
// 1024 TATP subscribers, 1024 Masstree keys over 16 prefixes, Silo's
// first index and record pages. TPC-C's 4096-item floor fills its whole
// arena below 382 KiB, and eats the order insert headroom the arena
// reserves below 876 KiB, where the floor stops binding. Workloads
// missing here build at any size Validate accepts.
var minDatasetBytes = map[string]uint64{
	"tatp":     112 << 10,
	"tpcc":     876 << 10,
	"silo":     8 << 10,
	"masstree": 68 << 10,
}

// MinDatasetBytes returns the smallest DatasetBytes the named workload
// accepts.
func MinDatasetBytes(name string) uint64 {
	return max(minDatasetBytes[name], mem.PageSize)
}

// New builds the named workload, or returns an error for unknown names
// and for datasets too small to hold the workload's tables.
func New(name string, cfg Config) (Workload, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	b, ok := builders[name]
	if !ok {
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
	if need := MinDatasetBytes(name); cfg.DatasetBytes < need {
		return nil, fmt.Errorf("workload: %s needs a dataset of at least %d bytes (%d KiB), got %d",
			name, need, need>>10, cfg.DatasetBytes)
	}
	if scale, ok := coldScale[name]; ok {
		cfg.HotAccessFraction = 1 - (1-cfg.HotAccessFraction)*scale
	}
	return b(cfg), nil
}

// newRNG derives a workload-local RNG.
func newRNG(cfg Config, salt uint64) *sim.RNG {
	return sim.NewRNG(cfg.Seed ^ salt)
}

// sampler draws item indices with the workload's popularity skew.
type sampler interface {
	Next() uint64
}

// hotPageBudget is the number of dataset pages the hot set may occupy:
// the paper's rule that the hot fraction matches the DRAM-cache capacity.
func hotPageBudget(cfg Config) uint64 {
	pages := cfg.DatasetBytes / mem.PageSize
	h := uint64(cfg.HotFraction * float64(pages))
	if h == 0 {
		h = 1
	}
	return h
}

// newSampler builds the hot/cold Zipf mixture over n items with a hot
// set of hotItems. Each workload derives hotItems from hotPageBudget
// according to its own layout: clustered structures pack hundreds of hot
// items per page, pointer-chasing ones spend pages on traversal paths.
func newSampler(cfg Config, rng *sim.RNG, n, hotItems uint64) sampler {
	return mem.NewHotCold(rng.Split(), n, hotItems, cfg.HotAccessFraction, cfg.ZipfTheta)
}
