package astriflash

import (
	"os"
	"runtime"
	"testing"
	"time"
)

// TestFullScaleProbe times one full-scale paper-config point (16 cores,
// 2 GB dataset) end to end — construction and saturated run separately —
// and logs the machine's live host heap after the build, events/sec and
// simulated-ns/sec. Run it with FULLSCALE=1 when construction, host
// memory or hot-path cost at scale is in question.
func TestFullScaleProbe(t *testing.T) {
	if os.Getenv("FULLSCALE") == "" {
		t.Skip("set FULLSCALE=1")
	}
	cfg := DefaultExpConfig()
	cfg.Cores = 16
	cfg.DatasetBytes = 2 << 30
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
	t.Logf("live heap after build %.0f MiB (%.0f MiB per simulated GiB)",
		heapMiB, heapMiB/(float64(cfg.DatasetBytes)/(1<<30)))
	res := m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
	p := m.LastRunProfile()
	t.Logf("build %.1fs run %.1fs events %d (%.2e ev/s, %.2e sim-ns/s) throughput %.0f jobs/s miss %.2f%%",
		build.Seconds(), float64(p.WallNs)/1e9, p.Events, p.EventsPerSec(), p.SimNsPerSec(),
		res.ThroughputJPS, res.DRAMCacheMissRatio*100)
}
