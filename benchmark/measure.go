package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sort"
	"syscall"

	"astriflash"
)

// sample is one operation: build a machine, run it once, check it.
type sample struct {
	setupCPUNs int64 // process CPU time of NewMachine
	heapBytes  int64 // live heap the built machine holds
	runCPUNs   int64 // process CPU time of the run
	runNs      int64 // in-run wall time (LastRunProfile().WallNs)
	simNs      int64 // simulated warmup+measure
	events     uint64
	mallocs    uint64
	allocB     uint64
	gcCycles   uint32
	metrics    astriflash.Metrics
	digest     string
}

// measure builds and runs one machine with tracing off. Any error, panic
// or failed check is returned; the caller counts the operation failed.
func measure(s spec, seed uint64) (smp sample, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", s.name, r)
		}
	}()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	heap0 := ms.HeapAlloc

	c0 := cpuTime()
	m, err := astriflash.NewMachine(s.options(seed))
	smp.setupCPUNs = cpuTime() - c0
	if err != nil {
		return smp, fmt.Errorf("%s: build: %w", s.name, err)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	smp.heapBytes = int64(ms.HeapAlloc) - int64(heap0)
	gc0 := ms.NumGC

	c0 = cpuTime()
	met, err := s.run(m, s.measureNs)
	smp.runCPUNs = cpuTime() - c0
	if err != nil {
		return smp, fmt.Errorf("%s: run: %w", s.name, err)
	}
	runtime.ReadMemStats(&ms)
	smp.gcCycles = ms.NumGC - gc0
	p := m.LastRunProfile()
	smp.runNs, smp.simNs, smp.events = p.WallNs, p.SimNs, p.Events
	smp.mallocs, smp.allocB = p.Mallocs, p.AllocBytes
	smp.metrics = met
	smp.digest = digest(met)
	return smp, check(s, met)
}

// cpuTime returns the CPU time the process has used, in nanoseconds. Unlike
// wall time it leaves out time a hypervisor gives to other guests (steal),
// which on a shared host can double a run's wall time.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// digest hashes every Metrics field. fmt prints map keys in sorted order,
// so the hash does not depend on Counters' iteration order.
func digest(m astriflash.Metrics) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf("%+v", m)))
	return hex.EncodeToString(sum[:8])
}

// check applies the conservation laws every run must satisfy.
func check(s spec, m astriflash.Metrics) error {
	c := m.Counters
	switch {
	case m.Jobs == 0:
		return fmt.Errorf("%s: no jobs completed", s.name)
	case m.Offered != m.Admitted+m.AdmissionSheds+m.QueueFullDrops:
		return fmt.Errorf("%s: offered %d != admitted %d + sheds %d + queue-full %d",
			s.name, m.Offered, m.Admitted, m.AdmissionSheds, m.QueueFullDrops)
	case m.FlashPrograms != c["flash.writes"]+c["flash.gc_page_moves"]+c["flash.remap_moves"]:
		return fmt.Errorf("%s: flash programs %d != writes %d + gc moves %d + remap moves %d",
			s.name, m.FlashPrograms, c["flash.writes"], c["flash.gc_page_moves"], c["flash.remap_moves"])
	case s.dramOnly() && (m.FlashReads != 0 || c["dramcache.misses"] != 0):
		return fmt.Errorf("%s: DRAM-only run read flash (%d reads, %d DRAM-cache misses)",
			s.name, m.FlashReads, c["dramcache.misses"])
	}
	return nil
}

// quartiles returns q1, median and q3 of vs by linear interpolation
// between closest ranks (the method of Python's statistics.quantiles with
// method="inclusive"). It does not modify vs.
func quartiles(vs []float64) (q1, med, q3 float64) {
	if len(vs) == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		x := p * float64(len(s)-1)
		i := int(x)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (x-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}
