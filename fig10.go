package astriflash

import (
	"fmt"

	"astriflash/internal/stats"
)

// Fig10Point is one load point of the simulated tail-latency comparison
// (Figure 10): TATP under Poisson arrivals.
type Fig10Point struct {
	// Load is throughput normalized to the DRAM-only system's maximum.
	Load float64
	// P99 is the 99th-percentile response latency normalized to the
	// DRAM-only system's mean service time.
	P99 float64
}

// Fig10Curve is one system's measured curve.
type Fig10Curve struct {
	System string
	Points []Fig10Point
}

// Fig10TailLatency reproduces Figure 10: sweep Poisson arrival rates on
// DRAM-only and AstriFlash running TATP, and report the p99 response
// latency against achieved load. The paper's claims to check: AstriFlash
// exceeds DRAM-only at low load (flash accesses are visible), but the
// curves converge near saturation — AstriFlash at ~93% load matches
// DRAM-only at ~96%.
func Fig10TailLatency(cfg ExpConfig, loadFractions []float64) ([]Fig10Curve, error) {
	if loadFractions == nil {
		loadFractions = []float64{0.2, 0.4, 0.6, 0.7, 0.8, 0.88, 0.93, 0.96, 0.98}
	}
	const wl = "tatp"
	// Baseline: DRAM-only saturation throughput and mean service time.
	// Every grid point's arrival rate depends on it, so it runs first
	// (at seed index 0); the {mode × load} grid then fans out.
	bases, err := runPoints(cfg, "fig10", cfg.modePoints(0, wl, DRAMOnly), cfg.saturated)
	if err != nil {
		return nil, err
	}
	base := bases[0]
	if base.ThroughputJPS == 0 || base.MeanServiceNs == 0 {
		return nil, fmt.Errorf("fig10: DRAM-only baseline is degenerate")
	}
	maxTput := base.ThroughputJPS
	meanSvc := float64(base.MeanServiceNs)

	modes := []Mode{DRAMOnly, AstriFlash}
	nl := len(loadFractions)
	grid := make([]point, len(modes)*nl)
	for i := range grid {
		mode, frac := modes[i/nl], loadFractions[i%nl]
		grid[i] = point{fmt.Sprintf("%s/load=%g", mode, frac), 1 + i, cfg.options(mode, wl)}
	}
	pts, err := runPoints(cfg, "fig10", grid, func(i int, m *Machine) (Fig10Point, error) {
		gap := 1e9 / (maxTput * loadFractions[i%nl]) // ns between arrivals
		res := m.RunPoisson(gap, cfg.WarmupNs, cfg.MeasureNs*2)
		return Fig10Point{
			Load: res.ThroughputJPS / maxTput,
			P99:  float64(res.P99ResponseNs) / meanSvc,
		}, nil
	})
	if err != nil {
		return nil, err
	}
	var curves []Fig10Curve
	for mi, mode := range modes {
		curves = append(curves, Fig10Curve{
			System: mode.String(),
			Points: pts[mi*nl : (mi+1)*nl],
		})
	}
	return curves, nil
}

// RenderFig10 formats the measured curves.
func RenderFig10(curves []Fig10Curve) string {
	var rows [][]string
	for _, c := range curves {
		for i, pt := range c.Points {
			name := ""
			if i == 0 {
				name = c.System
			}
			rows = append(rows, []string{
				name,
				fmt.Sprintf("%.3f", pt.Load),
				fmt.Sprintf("%.1fx", pt.P99),
			})
		}
	}
	return renderTable("Figure 10: measured p99 response (x DRAM-only mean service) vs load (TATP)",
		[]string{"system", "load", "p99"}, rows)
}

// PlotFig10 renders the measured tail curves as an ASCII chart.
func PlotFig10(curves []Fig10Curve) string {
	var series []stats.Series
	for _, c := range curves {
		s := stats.Series{Name: c.System}
		for _, pt := range c.Points {
			s.X = append(s.X, pt.Load)
			s.Y = append(s.Y, pt.P99)
		}
		series = append(series, s)
	}
	return stats.Plot{
		Title:  "Figure 10: measured p99 response (x DRAM-only mean service) vs load",
		XLabel: "achieved load (vs DRAM-only max)",
		YLabel: "p99 response",
		Width:  64,
		Height: 18,
		LogY:   true,
		Series: series,
	}.Render()
}
