package astriflash

// The economics experiment (-exp economics): price the flash-backed
// system against the all-DRAM baseline with the Five-Minute-Rule-style
// model in internal/econ, across a grid of DRAM:flash capacity ratios,
// flash device classes, and flash-write admission policies. The workload
// is tinykv — Nemo-style tiny objects whose scattered updates make write
// amplification an actual variable — and the device geometry is sized
// tight to the dataset (as in the GC sweep) so garbage collection runs
// and wear shows up in the $/op ledger. The rendered table shows where
// the paper's ~20x memory-cost claim holds, where write wear erodes it,
// and where it flips.

import (
	"fmt"
	"math"
	"strings"

	"astriflash/internal/econ"
	"astriflash/internal/stats"
)

// EconPoint is one priced point of the economics grid.
type EconPoint struct {
	// Class and Policy name the device class and admission policy; Frac
	// is the DRAM:flash capacity ratio.
	Class  string
	Policy string
	Frac   float64

	// Measured quantities from the sweep point's window.
	ThroughputJPS float64
	FlashWrites   uint64
	Bypassed      uint64 // fetches the policy diverted to the bypass ring
	WritesPerOp   float64
	WriteAmp      float64
	// ProgramsPerOp is flash page programs (host writes x WA, including
	// GC and remap copies) per completed job — the wear rate.
	ProgramsPerOp float64

	// Cost is the point priced at paper scale.
	Cost econ.PointCost
}

// EconReport is the full economics sweep: the pricing model, the
// DRAM-only baseline it normalizes against, and the priced grid.
type EconReport struct {
	Model econ.Model
	// Baseline is the DRAM-only run whose throughput prices the all-DRAM
	// alternative.
	Baseline Metrics
	Points   []EconPoint
	// Fractions, Classes, Policies record the grid axes in sweep order.
	Fractions []float64
	Classes   []econ.DeviceClass
	Policies  []string
}

// EconFractions are the default DRAM:flash capacity ratios the sweep
// prices, bracketing the paper's 3% provisioning rule.
func EconFractions() []float64 { return []float64{0.01, 0.03, 0.06} }

// EconPolicies are the admission policies the sweep compares.
func EconPolicies() []string {
	return []string{"admit-all", "write-threshold", "hit-economics"}
}

// econOptions builds one grid point's machine: tinykv small objects, an
// update-leaning mix, and small flash blocks so the update stream churns
// blocks into collection (physical capacity auto-sizes to a small
// multiple of the dataset, as in the GC sweep).
func econOptions(cfg ExpConfig, class econ.DeviceClass, frac float64, policy string) Options {
	o := cfg.options(AstriFlash, "tinykv")
	o.CacheFraction = frac
	// A 2% update mix over 98%-hot traffic: online-serving numbers, and
	// the regime where the cost verdict actually swings — cold updates
	// set the irreducible write floor (dirtied pages must reach the
	// backing store eventually), churn and GC decide everything above it.
	o.WriteFraction = 0.02
	o.HotAccessFraction = 0.98
	o.FlashReadNs = class.ReadLatencyNs
	o.FlashProgramNs = class.ProgramLatencyNs
	// Size the device tight around the dataset with few blocks per
	// plane: GC triggers on an absolute free-block low-water mark, so
	// holding blocks-per-plane at 6 (~2 free at this occupancy) keeps
	// garbage collection armed at every dataset scale — write
	// amplification is live, not pinned at 1 — while 8 channels keep
	// cold reads off the critical path. Pages-per-block absorbs the
	// dataset size so the capacity-doubling pass never fires (doubling
	// block count would push free blocks above the low-water mark).
	pages := o.DatasetBytes / 4096
	need := (pages + pages/256 + 8) * 112 / 100 // dataset + page tables + overprovision
	perBlock := (need*130/100 + 128*6 - 1) / (128 * 6)
	if perBlock < 4 {
		perBlock = 4
	}
	o.FlashChannels = 8
	o.FlashPagesPerBlock = int(perBlock)
	o.FlashBlocksPerPlane = 6
	o.AdmissionPolicy = policy
	return o
}

// EconomicsSweep runs the {device class x cache fraction x admission
// policy} grid plus one DRAM-only baseline and prices every point. The
// grid fans out across the worker pool; results are bit-identical for
// any worker count.
func EconomicsSweep(cfg ExpConfig) (*EconReport, error) {
	return economicsSweep(cfg, EconFractions(), EconPolicies())
}

// economicsSweep is EconomicsSweep over the given fraction and policy
// axes, which tests reduce; policies must start with admit-all, against
// which the render compares the others.
func economicsSweep(cfg ExpConfig, fractions []float64, policies []string) (*EconReport, error) {
	classes := econ.Classes()
	nf, np := len(fractions), len(policies)
	grid := len(classes) * nf * np

	// Point 0 is the DRAM-only baseline; grid points follow. The three
	// policy points of one (class, fraction) cell share a seed index:
	// identical workload streams make the writes-saved and goodput
	// columns an apples-to-apples policy comparison.
	o := cfg.options(DRAMOnly, "tinykv")
	o.WriteFraction = 0.02
	o.HotAccessFraction = 0.98
	pts := []point{{"baseline", 0, o}}
	for ci, class := range classes {
		for fi, frac := range fractions {
			for _, policy := range policies {
				pts = append(pts, point{fmt.Sprintf("%s/%.0f%%/%s", class.Name, frac*100, policy),
					1 + ci*nf + fi, econOptions(cfg, class, frac, policy)})
			}
		}
	}
	// The device starts empty and writes stripe round-robin across every
	// plane, so garbage collection cannot begin until the write volume has
	// filled one block per plane; a tripled window gives the update stream
	// time to reach and sustain that regime.
	res, err := runPoints(cfg, "economics", pts, func(_ int, m *Machine) (Metrics, error) {
		return m.RunSaturated(cfg.Inflight, cfg.WarmupNs, 3*cfg.MeasureNs), nil
	})
	if err != nil {
		return nil, err
	}

	base := res[0]
	if base.Jobs == 0 {
		return nil, fmt.Errorf("economics: DRAM-only baseline made no progress")
	}
	rep := &EconReport{
		Model:     econ.DefaultModel(),
		Baseline:  base,
		Fractions: fractions,
		Classes:   classes,
		Policies:  policies,
	}
	for g := 0; g < grid; g++ {
		class := classes[g/(nf*np)]
		frac := fractions[g/np%nf]
		policy := policies[g%np]
		m := res[1+g]
		if m.Jobs == 0 {
			return nil, fmt.Errorf("economics %s/%.0f%%/%s: no jobs completed", class.Name, frac*100, policy)
		}
		jobs := float64(m.Jobs)
		programsPerOp := float64(m.FlashPrograms) / jobs
		rep.Points = append(rep.Points, EconPoint{
			Class:         class.Name,
			Policy:        policy,
			Frac:          frac,
			ThroughputJPS: m.ThroughputJPS,
			FlashWrites:   m.FlashWrites,
			Bypassed:      m.AdmissionBypassed,
			WritesPerOp:   float64(m.FlashWrites) / jobs,
			WriteAmp:      m.WriteAmplification,
			ProgramsPerOp: programsPerOp,
			Cost: rep.Model.CostPerOp(class, frac, m.ThroughputJPS,
				base.ThroughputJPS, programsPerOp),
		})
	}
	return rep, nil
}

// point returns the grid point for (class, fraction, policy) indices.
func (r *EconReport) point(ci, fi, pi int) EconPoint {
	return r.Points[(ci*len(r.Fractions)+fi)*len(r.Policies)+pi]
}

// RenderEconomics formats the priced grid: the $/op table with per-point
// verdicts on the memory-cost claim, the per-policy flash-write
// reduction against admit-all, and each class's break-even DRAM:flash
// ratio where the advantage crosses 1.
func RenderEconomics(r *EconReport) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Economics: $/op at paper scale (%d GB dataset, DRAM $%.2f/GB, %gy amortization)\n",
		r.Model.DatasetBytes>>30, r.Model.DRAMDollarsPerGB, r.Model.AmortYears)
	fmt.Fprintf(&b, "DRAM-only baseline: %.0f jobs/s, %s/op\n\n",
		r.Baseline.ThroughputJPS,
		econ.FormatDollars(r.Model.CostPerOp(econ.EnterpriseTLC(), 1, 1, r.Baseline.ThroughputJPS, 0).DRAMOnly))

	t := stats.Table{Header: []string{
		"class", "dram:flash", "policy", "jobs/s", "wr/op", "WA", "prog/op", "$/op", "advantage", "claim"}}
	for ci := range r.Classes {
		for fi := range r.Fractions {
			for pi := range r.Policies {
				p := r.point(ci, fi, pi)
				t.AddRow(p.Class,
					fmt.Sprintf("%.0f%%", p.Frac*100),
					p.Policy,
					fmt.Sprintf("%.0f", p.ThroughputJPS),
					fmt.Sprintf("%.3f", p.WritesPerOp),
					fmt.Sprintf("%.2f", p.WriteAmp),
					fmt.Sprintf("%.3f", p.ProgramsPerOp),
					econ.FormatDollars(p.Cost.Total),
					fmt.Sprintf("%.1fx", p.Cost.Advantage),
					econ.Verdict(p.Cost.Advantage))
			}
		}
	}
	b.WriteString(t.String())

	b.WriteString("\nAdmission filtering vs admit-all (flash writes saved, goodput kept):\n")
	wt := stats.Table{Header: []string{"class", "dram:flash", "policy", "writes saved", "bypassed", "goodput"}}
	for ci := range r.Classes {
		for fi := range r.Fractions {
			all := r.point(ci, fi, 0) // Policies[0] is admit-all
			for pi := 1; pi < len(r.Policies); pi++ {
				p := r.point(ci, fi, pi)
				saved := 0.0
				if all.WritesPerOp > 0 {
					saved = 1 - p.WritesPerOp/all.WritesPerOp
				}
				wt.AddRow(p.Class,
					fmt.Sprintf("%.0f%%", p.Frac*100),
					p.Policy,
					fmt.Sprintf("%.1f%%", saved*100),
					fmt.Sprintf("%d", p.Bypassed),
					fmt.Sprintf("%.2f", p.ThroughputJPS/all.ThroughputJPS))
			}
		}
	}
	b.WriteString(wt.String())

	b.WriteString("\nBreak-even DRAM:flash ratio (advantage crosses 1x):\n")
	for ci, class := range r.Classes {
		for pi, policy := range r.Policies {
			var pts []econ.RatioPoint
			for fi := range r.Fractions {
				p := r.point(ci, fi, pi)
				pts = append(pts, econ.RatioPoint{CacheFraction: p.Frac, Advantage: p.Cost.Advantage})
			}
			if f, ok := econ.BreakEvenFraction(pts); ok {
				fmt.Fprintf(&b, "  %-14s %-15s flips at %.1f%% DRAM\n", class.Name, policy, f*100)
			} else {
				fmt.Fprintf(&b, "  %-14s %-15s no flip in %.0f-%.0f%% range (advantage %.1f-%.1fx)\n",
					class.Name, policy,
					r.Fractions[0]*100, r.Fractions[len(r.Fractions)-1]*100,
					pts[len(pts)-1].Advantage, pts[0].Advantage)
			}
		}
	}

	b.WriteString("\nWrite budget for the 20x claim (at DRAM-only throughput parity, 3% DRAM):\n")
	for ci, class := range r.Classes {
		minProg := math.Inf(1)
		for fi := range r.Fractions {
			for pi := range r.Policies {
				if p := r.point(ci, fi, pi); p.ProgramsPerOp < minProg {
					minProg = p.ProgramsPerOp
				}
			}
		}
		if ceiling, ok := r.Model.HoldsCeiling(class, 0.03, r.Baseline.ThroughputJPS, 10); ok {
			fmt.Fprintf(&b, "  %-14s holds (>=10x) only below %.5f programs/op; measured min %.5f (%.0fx over budget)\n",
				class.Name, ceiling, minProg, minProg/ceiling)
		} else {
			fmt.Fprintf(&b, "  %-14s cannot hold >=10x at any write rate: capacity floor too high\n", class.Name)
		}
	}

	b.WriteString("\nFive-Minute-Rule break-even reuse interval (1 TB drive, read-limited IOPS):\n")
	for _, class := range r.Classes {
		iops := 2 * 1e9 / float64(class.ReadLatencyNs) // 2 channels, one read in flight each
		fmt.Fprintf(&b, "  %-14s cache a page re-read more often than every %.0f s\n",
			class.Name, r.Model.FiveMinuteBreakEven(class, 1000, iops))
	}
	return b.String()
}
