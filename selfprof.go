package astriflash

// Simulator self-profiling: every Machine run records how fast the
// simulator itself executed (wall clock, engine events fired, in-run heap
// allocations), aggregated process-wide so sweeps can report events/sec.
// The benchmark (benchmark/) reads the per-run profile. Profiling only
// observes the host clock after a run completes; simulated results are
// unaffected.

import (
	"runtime"
	"sync/atomic"
	"time"
)

// RunProfile describes how fast one simulation run executed on the host.
type RunProfile struct {
	// WallNs is host time spent inside the run.
	WallNs int64
	// Events is the number of engine events the run fired.
	Events uint64
	// SimNs is the simulated time the run covered (warmup + measurement).
	SimNs int64
	// Mallocs and AllocBytes are heap allocations during the run itself —
	// machine construction (arenas, page tables, workload stores) is
	// excluded, so this is the steady-state allocation cost. The counters
	// are process-wide: under a parallel sweep one run's delta includes
	// concurrent workers' allocations (the aggregate view stays exact).
	Mallocs    uint64
	AllocBytes uint64
}

// EventsPerSec is the run's simulation speed in events per wall second.
func (p RunProfile) EventsPerSec() float64 {
	if p.WallNs <= 0 {
		return 0
	}
	return float64(p.Events) / (float64(p.WallNs) / 1e9)
}

// SimNsPerSec is the run's simulation speed in simulated nanoseconds per
// wall second — the speed metric that stays comparable when flattening
// changes how many events a given simulated interval costs.
func (p RunProfile) SimNsPerSec() float64 {
	if p.WallNs <= 0 {
		return 0
	}
	return float64(p.SimNs) / (float64(p.WallNs) / 1e9)
}

// Process-wide aggregates, advanced after every Machine run. simRuns lives
// in astriflash.go (predates this file).
var (
	simWallNs atomic.Int64
	simEvents atomic.Uint64
)

// profiled runs one driver call with self-profiling: wall time, fired
// events, simulated time covered, and in-run heap allocations are recorded
// on the machine; wall time and events are added to the process aggregates.
// A call the driver rejects is not a run and records nothing.
func (m *Machine) profiled(run func() (Metrics, error)) (Metrics, error) {
	fired0 := m.sys.Engine().Fired()
	sim0 := int64(m.sys.Engine().Now())
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	res, err := run()
	if err != nil {
		return res, err
	}
	wall := time.Since(start).Nanoseconds()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	ev := m.sys.Engine().Fired() - fired0
	simNs := int64(m.sys.Engine().Now()) - sim0
	m.lastProf = RunProfile{
		WallNs:     wall,
		Events:     ev,
		SimNs:      simNs,
		Mallocs:    ms1.Mallocs - ms0.Mallocs,
		AllocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
	}
	simWallNs.Add(wall)
	simEvents.Add(ev)
	simRuns.Add(1)
	return res, nil
}

// LastRunProfile returns the self-profile of the machine's most recent run
// (zero value before any run).
func (m *Machine) LastRunProfile() RunProfile { return m.lastProf }

// AggregateProfile is the process-wide self-profiling view.
type AggregateProfile struct {
	// Runs is the number of completed simulation points (== SimRuns()).
	Runs uint64
	// WallNs is wall time spent inside runs, summed across workers — with
	// a parallel sweep this exceeds elapsed time.
	WallNs int64
	// Events is the total engine events fired.
	Events uint64
}

// EventsPerSec is the aggregate simulation speed over in-run wall time.
func (a AggregateProfile) EventsPerSec() float64 {
	if a.WallNs <= 0 {
		return 0
	}
	return float64(a.Events) / (float64(a.WallNs) / 1e9)
}

// SelfProfile returns the process-wide aggregates. Safe to read
// concurrently with running sweeps.
func SelfProfile() AggregateProfile {
	return AggregateProfile{
		Runs:   simRuns.Load(),
		WallNs: simWallNs.Load(),
		Events: simEvents.Load(),
	}
}
