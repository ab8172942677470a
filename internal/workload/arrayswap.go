package workload

import (
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("arrayswap", func(cfg Config) Workload { return NewArraySwap(cfg) }) }

// ArraySwap is the microbenchmark from Section V-A: each operation swaps
// two 64-bit array elements, generating both reads and writes with a
// Zipfian index distribution. It is the pure capacity/bandwidth stressor:
// no pointer chasing, uniform op cost.
type ArraySwap struct {
	cfg      Config
	arena    *mem.Arena
	base     mem.Addr
	elements uint64
	zipf     sampler
	rng      *sim.RNG
	jobTr    Tracer
}

// NewArraySwap builds the array over a fresh arena.
func NewArraySwap(cfg Config) *ArraySwap {
	arena := mem.NewArena(0, cfg.DatasetBytes)
	elements := cfg.DatasetBytes / 8
	base := arena.Alloc(elements*8, mem.PageSize)
	rng := newRNG(cfg, 0xa55a)
	return &ArraySwap{
		cfg:      cfg,
		arena:    arena,
		base:     base,
		elements: elements,
		// The array is positional: hot items [0, hotN) pack ~512 per page.
		zipf: newSampler(cfg, rng, elements, hotPageBudget(cfg)*256),
		rng:  rng,
	}
}

// Name implements Workload.
func (w *ArraySwap) Name() string { return "arrayswap" }

// DatasetPages implements Workload.
func (w *ArraySwap) DatasetPages() uint64 { return w.arena.Pages() }

func (w *ArraySwap) addrOf(idx uint64) mem.Addr { return w.base + mem.Addr(idx*8) }

// NewJobSteps produces OpsPerJob swaps: read i, read j, write i, write j.
// The trace is written into buf.
func (w *ArraySwap) NewJobSteps(buf []Step) []Step {
	w.jobTr.Reset(w.cfg.ComputePerAccessNs, buf)
	tr := &w.jobTr
	for op := 0; op < w.cfg.OpsPerJob; op++ {
		i, j := w.zipf.Next(), w.zipf.Next()
		tr.Touch(w.addrOf(i), false)
		tr.Touch(w.addrOf(j), false)
		tr.Touch(w.addrOf(i), true)
		tr.Touch(w.addrOf(j), true)
	}
	return tr.Take()
}
