package astriflash

import (
	"math"
	"runtime"
	"testing"
	"time"
)

// hostCostPin is one benchmark workload (benchmark/workloads.go, seed
// 42367) and the host costs it must reproduce. Events and jobs are exact
// on any host; heap and mallocs carry BENCHMARK.json's bounds for heap_mb
// and run_mallocs_per_job, checked in both directions, so a change that
// moves a pin on purpose updates it here.
type hostCostPin struct {
	name string
	opts Options
	run  func(*Machine) (Metrics, error)

	events        uint64
	jobs          uint64
	heapMiB       float64
	mallocsPerJob float64
}

const (
	hostCostSeed    = 42367
	heapPinBound    = 0.05
	mallocsPinBound = 0.20
	hostCostTimeout = 60 * time.Second // the benchmark's runTimeout
)

// hostCostPins mirrors the four workloads of benchmark/workloads.go.
func hostCostPins() []hostCostPin {
	opts := func(mode Mode, wl string, cores int, datasetB uint64) Options {
		o := DefaultOptions(mode, wl)
		o.Cores = cores
		o.DatasetBytes = datasetB
		o.RunTimeout = hostCostTimeout
		o.Seed = hostCostSeed
		return o
	}
	tinykv := opts(AstriFlash, "tinykv", 8, 32<<20)
	tinykv.WriteFraction = 0.02
	tinykv.HotAccessFraction = 0.98
	tinykv.AdmissionPolicy = "hit-economics"
	tinykv.FlashChannels = 8
	tinykv.FlashBlocksPerPlane = 6
	tinykv.FlashPagesPerBlock = 16
	saturated := func(inflight int, warmupNs, measureNs int64) func(*Machine) (Metrics, error) {
		return func(m *Machine) (Metrics, error) {
			return m.RunSaturated(inflight, warmupNs, measureNs), nil
		}
	}
	return []hostCostPin{
		{
			name: "tatp-open",
			opts: opts(AstriFlash, "tatp", 8, 32<<20),
			run: func(m *Machine) (Metrics, error) {
				return m.RunOverload(OverloadRun{
					Shape:       "mmpp",
					MeanGapNs:   490,
					Burstiness:  0.5,
					DwellNs:     2e6,
					Controller:  "codel",
					DeadlineNs:  500_000,
					DropExpired: true,
					QueueLimit:  4096,
					WarmupNs:    10_000_000,
					MeasureNs:   40_000_000,
				})
			},
			events: 378_594, jobs: 56_961, heapMiB: 0.916, mallocsPerJob: 0.0665,
		},
		{
			name:   "tatp-dram",
			opts:   opts(DRAMOnly, "tatp", 8, 32<<20),
			run:    saturated(48, 10_000_000, 50_000_000),
			events: 166_601, jobs: 80_292, heapMiB: 0.909, mallocsPerJob: 0.0105,
		},
		{
			name:   "tinykv-write",
			opts:   tinykv,
			run:    saturated(48, 10_000_000, 400_000_000),
			events: 1_296_087, jobs: 110_689, heapMiB: 0.166, mallocsPerJob: 0.0148,
		},
		{
			name:   "tatp-512m",
			opts:   opts(AstriFlash, "tatp", 16, 512<<20),
			run:    saturated(48, 5_000_000, 10_000_000),
			events: 453_736, jobs: 21_150, heapMiB: 4.10, mallocsPerJob: 0.1186,
		},
	}
}

// TestHostCostPins is the deterministic host-cost gate: it builds and runs
// each benchmark workload once, measured as benchmark/measure.go does, and
// checks engine events, completed jobs, the live heap after NewMachine and
// in-run mallocs per job against their pins. Wall-clock timings are left
// to the benchmark's repeated, interleaved protocol (benchmark/README.md).
func TestHostCostPins(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the four benchmark workloads")
	}
	if raceEnabled {
		t.Skip("host-cost pins are measured without the race detector")
	}
	for _, p := range hostCostPins() {
		t.Run(p.name, func(t *testing.T) {
			// Two collections before the baseline: after one, objects the
			// test process dropped earlier can still count in the baseline
			// and be freed by the next, which reads ~35 KiB below the
			// benchmark's figure.
			var ms runtime.MemStats
			runtime.GC()
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heap0 := ms.HeapAlloc
			m, err := NewMachine(p.opts)
			if err != nil {
				t.Fatal(err)
			}
			runtime.GC()
			runtime.ReadMemStats(&ms)
			heapMiB := float64(int64(ms.HeapAlloc)-int64(heap0)) / (1 << 20)

			met, err := p.run(m)
			if err != nil {
				t.Fatal(err)
			}
			prof := m.LastRunProfile()
			mallocsPerJob := float64(prof.Mallocs) / float64(met.Jobs)
			t.Logf("events %d jobs %d heap %.4f MiB mallocs/job %.5f",
				prof.Events, met.Jobs, heapMiB, mallocsPerJob)

			if prof.Events != p.events {
				t.Errorf("engine events = %d, pinned %d", prof.Events, p.events)
			}
			if met.Jobs != p.jobs {
				t.Errorf("jobs = %d, pinned %d", met.Jobs, p.jobs)
			}
			if d := math.Abs(heapMiB/p.heapMiB - 1); d > heapPinBound {
				t.Errorf("live heap after NewMachine = %.3f MiB, pinned %.3f MiB (off by %.1f%%, bound %.0f%%)",
					heapMiB, p.heapMiB, d*100, heapPinBound*100)
			}
			if d := math.Abs(mallocsPerJob/p.mallocsPerJob - 1); d > mallocsPinBound {
				t.Errorf("run mallocs per job = %.4f, pinned %.4f (off by %.1f%%, bound %.0f%%)",
					mallocsPerJob, p.mallocsPerJob, d*100, mallocsPinBound*100)
			}
		})
	}
}
