package astriflash

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// maxHeapMiBPerSimGiB bounds the live host heap a full-scale machine
// holds after its build, per simulated GiB of dataset: 1.25 times the
// larger of the two points' figures. Strided internal B+tree nodes put
// them at 6.0 (2 GB) and 5.4 MiB (16 GB); index-addressed, pointer-free
// nodes with every internal node wide held 8.6 and 8.0, 80-byte nodes
// with strided leaves about 26, packed 16-bit leaf offsets 83.
const maxHeapMiBPerSimGiB = 7.5

// TestFullScaleProbe times full-scale paper-config points (16 cores, 2 GB
// and 16 GB datasets) end to end, construction and saturated run
// separately, and logs each machine's live host heap after the build,
// build seconds per simulated GiB, events/sec and simulated-ns/sec. It fails a point whose heap exceeds
// maxHeapMiBPerSimGiB. Run it with FULLSCALE=1 (`make fullscale-probe`)
// when construction, host memory or hot-path cost at scale is in
// question; the 16 GB point holds about 86 MiB.
func TestFullScaleProbe(t *testing.T) {
	if os.Getenv("FULLSCALE") == "" {
		t.Skip("set FULLSCALE=1")
	}
	for _, gib := range []uint64{2, 16} {
		t.Run(fmt.Sprintf("%dGB", gib), func(t *testing.T) {
			cfg := DefaultExpConfig()
			cfg.Cores = 16
			cfg.DatasetBytes = gib << 30
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			start := time.Now()
			m, err := NewMachine(cfg.options(AstriFlash, "tatp"))
			if err != nil {
				t.Fatal(err)
			}
			build := time.Since(start)
			runtime.GC()
			runtime.ReadMemStats(&after)
			heapMiB := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / (1 << 20)
			perGiB := heapMiB / float64(gib)
			t.Logf("live heap after build %.0f MiB (%.1f MiB per simulated GiB); build %.3fs per simulated GiB",
				heapMiB, perGiB, build.Seconds()/float64(gib))
			res := m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
			p := m.LastRunProfile()
			t.Logf("build %.1fs run %.1fs events %d (%.2e ev/s, %.2e sim-ns/s) throughput %.0f jobs/s miss %.2f%%",
				build.Seconds(), float64(p.WallNs)/1e9, p.Events, p.EventsPerSec(), p.SimNsPerSec(),
				res.ThroughputJPS, res.DRAMCacheMissRatio*100)
			if perGiB > maxHeapMiBPerSimGiB {
				t.Errorf("%.1f MiB of live heap per simulated GiB, want <= %.1f", perGiB, maxHeapMiBPerSimGiB)
			}
		})
	}
}
