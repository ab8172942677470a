package main

// Layer microbenchmarks: ns/op and allocs/op of each layer's hot call on
// fixed inputs, taken from each workload's own generated access stream.
//
//	go -C benchmark test -run '^$' -bench . -benchmem

import (
	"sync"
	"testing"

	"astriflash/internal/cachehier"
	"astriflash/internal/dram"
	"astriflash/internal/dramcache"
	"astriflash/internal/flash"
	"astriflash/internal/mem"
	"astriflash/internal/sim"
	"astriflash/internal/stats"
	"astriflash/internal/tlbvm"
	"astriflash/internal/workload"
)

// streamLen is the number of accesses each stream holds (a power of two,
// so benchmarks index it with a mask).
const streamLen = 1 << 16

// stream is one workload's fixed input.
type stream struct {
	steps []workload.Step // streamLen steps, jobs back to back
	pages []mem.PageNum   // the distinct pages, in first-touch order
}

var (
	streamsOnce sync.Once
	streams     map[string]*stream
)

// streamConfig mirrors the workloads' data sets: 32 MB at the benchmark's
// default seed; tinykv with the tinykv-write mix.
func streamConfig(name string) workload.Config {
	cfg := workload.DefaultConfig()
	cfg.DatasetBytes = 32 << 20
	cfg.Seed = 42367
	if name == "tinykv" {
		cfg.WriteFraction = 0.02
		cfg.HotAccessFraction = 0.98
	}
	return cfg
}

func newStream(name string) *stream {
	w, err := workload.New(name, streamConfig(name))
	if err != nil {
		panic(err)
	}
	s := &stream{}
	seen := map[mem.PageNum]bool{}
	var buf []workload.Step
	for len(s.steps) < streamLen {
		buf = w.(workload.StepReuser).NewJobSteps(buf)
		for _, st := range buf {
			if p := st.Access.Page(); !seen[p] {
				seen[p] = true
				s.pages = append(s.pages, p)
			}
		}
		s.steps = append(s.steps, buf...)
	}
	s.steps = s.steps[:streamLen]
	return s
}

// streamFor returns the named workload's stream, built on first use.
func streamFor(name string) *stream {
	streamsOnce.Do(func() {
		streams = map[string]*stream{"tatp": newStream("tatp"), "tinykv": newStream("tinykv")}
	})
	return streams[name]
}

// forEachStream runs fn as a sub-benchmark per workload stream.
func forEachStream(b *testing.B, fn func(b *testing.B, s *stream)) {
	for _, name := range []string{"tatp", "tinykv"} {
		s := streamFor(name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			fn(b, s)
		})
	}
}

func nopEvent(any) {}

func BenchmarkEngineAtFuncStep(b *testing.B) {
	const depth = 384
	forEachStream(b, func(b *testing.B, s *stream) {
		e := sim.NewEngine()
		arg := new(int)
		for i := 0; i < depth; i++ {
			e.AtFunc(sim.Time(s.steps[i].ComputeNs)*sim.Time(i+1), nopEvent, arg)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.AtFunc(e.Now()+sim.Time(depth*s.steps[i&(streamLen-1)].ComputeNs), nopEvent, arg)
			e.Step()
		}
	})
}

func BenchmarkTLBLookupInsert(b *testing.B) {
	forEachStream(b, func(b *testing.B, s *stream) {
		t := tlbvm.NewTLB(tlbvm.DefaultTLBConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			vpn := s.steps[i&(streamLen-1)].Access.Page()
			if _, hit := t.Lookup(vpn); !hit {
				t.Insert(vpn)
			}
		}
	})
}

func BenchmarkCachehierAccessFill(b *testing.B) {
	forEachStream(b, func(b *testing.B, s *stream) {
		h := cachehier.NewHierarchy(cachehier.DefaultHierConfig())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := s.steps[i&(streamLen-1)].Access
			if h.Access(a).ToDRAM {
				h.Fill(a)
			}
		}
	})
}

// newDRAMCache builds a DRAM cache of the given capacity over a default
// DRAM and flash device.
func newDRAMCache(pages uint64, policy string) (*sim.Engine, *dramcache.Cache) {
	eng := sim.NewEngine()
	cfg := dramcache.DefaultConfig(pages)
	cfg.Admission = dramcache.AdmissionConfig{Policy: policy}
	dev := dram.NewDevice(dram.DefaultTiming(), dram.DefaultGeometry())
	return eng, dramcache.New(eng, cfg, dev, flash.NewDevice(eng, flash.DefaultConfig()))
}

func BenchmarkDRAMCacheHit(b *testing.B) {
	forEachStream(b, func(b *testing.B, s *stream) {
		_, c := newDRAMCache(uint64(len(s.pages)+15)/16*16*2, "")
		for _, p := range s.pages {
			c.Preload(p)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !c.AccessSync(s.steps[i&(streamLen-1)].Access).Hit {
				b.Fatal("preloaded page missed")
			}
		}
	})
}

// BenchmarkDRAMCacheMiss cycles through the stream's distinct pages on a
// 256-page cache, so every access misses; a second access to the same page
// merges into the in-flight MSR entry, and the engine then runs the flash
// fetch and install.
func BenchmarkDRAMCacheMiss(b *testing.B) {
	for _, policy := range []string{"admit-all", "hit-economics"} {
		b.Run(policy, func(b *testing.B) {
			forEachStream(b, func(b *testing.B, s *stream) {
				eng, c := newDRAMCache(256, policy)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					a := mem.Access{Addr: mem.PageBase(s.pages[i%len(s.pages)])}
					c.AccessSync(a)
					c.AccessSync(a)
					eng.Run()
				}
				b.StopTimer()
				if c.MergedMiss.Value() == 0 {
					b.Fatal("no MSR merges")
				}
			})
		})
	}
}

// tightFlash is the tinykv-write device geometry, small enough that
// sustained writes keep garbage collection running.
func tightFlash(eng *sim.Engine) *flash.Device {
	cfg := flash.DefaultConfig()
	cfg.Channels, cfg.BlocksPerPlane, cfg.PagesPerBlock = 8, 6, 16
	return flash.NewDevice(eng, cfg)
}

func BenchmarkFlash(b *testing.B) {
	done := func(int64) {}
	for _, op := range []string{"Read", "Write"} {
		b.Run(op, func(b *testing.B) {
			forEachStream(b, func(b *testing.B, s *stream) {
				eng := sim.NewEngine()
				d := tightFlash(eng)
				n := d.LogicalPages()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					lpn := s.steps[i&(streamLen-1)].Access.Page() % mem.PageNum(n)
					if op == "Read" {
						d.Read(lpn, done)
					} else {
						d.Write(lpn, done)
					}
					eng.Run()
				}
				b.StopTimer()
				if op == "Write" && b.N >= 10_000 && d.GCRuns.Value() == 0 {
					b.Fatalf("%d writes ran no garbage collection", b.N)
				}
				b.ReportMetric(float64(d.GCRuns.Value())/float64(b.N), "gc/op")
			})
		})
	}
}

func BenchmarkNewJobSteps(b *testing.B) {
	for _, name := range []string{"tatp", "tinykv"} {
		b.Run(name, func(b *testing.B) {
			w, err := workload.New(name, streamConfig(name))
			if err != nil {
				b.Fatal(err)
			}
			r := w.(workload.StepReuser)
			var buf []workload.Step
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf = r.NewJobSteps(buf)
			}
		})
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	forEachStream(b, func(b *testing.B, s *stream) {
		h := stats.NewHistogram()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st := s.steps[i&(streamLen-1)]
			h.Record(st.ComputeNs * int64(1+st.Access.Page()%64))
		}
	})
}
