package workload

import (
	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

func init() { register("tinykv", func(cfg Config) Workload { return NewTinyKVWorkload(cfg) }) }

// TinyKVWorkload is a small-object key-value store: fixed-size objects
// (Config.ObjectBytes, default 128 B) packed contiguously into 4 KB
// pages, accessed through a Zipfian hot/cold mixture. Because dozens of
// objects share a page, a write stream over tiny objects dirties many
// distinct pages per byte of logical update — the Nemo-style regime in
// which flash write amplification actually moves. It is the economics
// sweep's workload and is deliberately not part of Names(): the paper's
// figure suite keeps its original seven workloads.
type TinyKVWorkload struct {
	cfg   Config
	arena *mem.Arena
	base  mem.Addr
	size  uint64
	zipf  sampler
	rng   *sim.RNG
	jobTr Tracer
}

// DefaultObjectBytes is the tinykv object size when Config.ObjectBytes
// is zero: 128 B, 32 objects per 4 KB page.
const DefaultObjectBytes = 128

// NewTinyKVWorkload builds the object arena and the hot/cold sampler.
// The hot set is clustered at the base of the arena so hot objects pack
// into hot pages, matching the paper's two-tier locality model.
func NewTinyKVWorkload(cfg Config) *TinyKVWorkload {
	size := cfg.ObjectBytes
	if size == 0 {
		size = DefaultObjectBytes
	}
	if size > mem.PageSize {
		size = mem.PageSize
	}
	arena := mem.NewArena(0, cfg.DatasetBytes)
	objs := cfg.DatasetBytes / size
	base := arena.Alloc(objs*size, mem.PageSize)
	rng := newRNG(cfg, 0x7e57_0bb5)
	perPage := mem.PageSize / size
	hotObjs := hotPageBudget(cfg) * perPage
	if hotObjs > objs {
		hotObjs = objs
	}
	return &TinyKVWorkload{
		cfg:   cfg,
		arena: arena,
		base:  base,
		size:  size,
		zipf:  newSampler(cfg, rng, objs, hotObjs),
		rng:   rng,
	}
}

// Name implements Workload.
func (w *TinyKVWorkload) Name() string { return "tinykv" }

// DatasetPages implements Workload.
func (w *TinyKVWorkload) DatasetPages() uint64 { return w.arena.Pages() }

// addrOf returns the arena address of object i.
func (w *TinyKVWorkload) addrOf(i uint64) mem.Addr {
	return w.base + mem.Addr(i*w.size)
}

// NewJobSteps performs OpsPerJob object operations with a WriteFraction
// update mix: a get reads the object's header block; a put reads it and
// writes it back (read-modify-write, the small-object store pattern).
// The trace is written into buf.
func (w *TinyKVWorkload) NewJobSteps(buf []Step) []Step {
	w.jobTr.Reset(w.cfg.ComputePerAccessNs, buf)
	tr := &w.jobTr
	for op := 0; op < w.cfg.OpsPerJob; op++ {
		i := w.zipf.Next()
		a := w.addrOf(i)
		if w.rng.Float64() < w.cfg.WriteFraction {
			tr.Touch(a, false) // read-modify-write: load the old value,
			tr.Touch(a, true)  // then store the new one
		} else {
			tr.Touch(a, false)
		}
	}
	return tr.Take()
}
