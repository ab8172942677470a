package astriflash

// The overload experiment: drive each configuration open-loop past its
// knee under three admission policies and render the two curves that
// summarize graceful degradation — p99 response vs offered load (the
// hockey stick) and goodput vs offered load. A closed-loop driver can
// only measure the knee; an open-loop source shows what happens beyond
// it: with no admission control the queue grows without bound and every
// served request inherits the backlog's delay, while a controller trades
// counted drops at the front door for a flat served-traffic tail.
//
// The sweep is three phases. Phase 1 measures each configuration's knee
// (closed-loop saturation throughput). Phase 2 measures its uncongested
// p99 at a fraction of the knee; the SLO threshold, deadline, and the
// adaptive controller's delay target all derive from it. Phase 3 fans the
// {mode x controller x offered-load} grid out across the worker pool,
// each point evaluated against its mode's SLO with the burn-rate
// machinery (internal/obs/timeline).

import (
	"fmt"
	"math"

	"astriflash/internal/obs/timeline"
	"astriflash/internal/stats"
)

// OverloadModes are the configurations the overload experiment compares.
var OverloadModes = []Mode{DRAMOnly, AstriFlash, OSSwap, FlashSync}

// OverloadControllers are the admission policies compared at every load.
var OverloadControllers = []string{"none", "static", "codel"}

// overloadBaseFrac is the phase-2 offered load (fraction of the knee)
// used to measure the uncongested tail: rho = 0.5, the conventional
// light-load operating point (the same one the M/M/1 cross-validation
// uses).
const overloadBaseFrac = 0.5

// overloadSLOFactor sets the per-mode SLO threshold: p99 response must
// stay under this multiple of the uncongested p99.
const overloadSLOFactor = 2.0

// OverloadPoint is one {mode, controller, offered load} measurement.
type OverloadPoint struct {
	Mode       string
	Controller string
	// OfferedFrac is the offered load as a fraction of the mode's knee;
	// OfferedJPS is the same in jobs/s.
	OfferedFrac float64
	OfferedJPS  float64
	// ThroughputJPS counts all completions; GoodputJPS only those within
	// their deadline.
	ThroughputJPS float64
	GoodputJPS    float64
	// P99RespNs is the served traffic's p99 response — drops excluded,
	// which is the point: shedding keeps this flat.
	P99RespNs int64
	// ShedFrac is the front-door drop fraction of offered arrivals
	// (controller sheds + queue-full drops). DropFrac adds the
	// expired-at-dispatch drops: the total fraction of offered traffic
	// not served because of overload protection, the quantity that
	// grows monotonically with offered load (under deep overload the
	// dispatch-drop path substitutes for some front-door shedding).
	ShedFrac float64
	DropFrac float64
	// DeadlineMisses counts served-late requests, ExpiredDrops requests
	// dropped at dispatch because their deadline had already passed, and
	// ExpiredInFlash those whose deadline expired during a flash wait.
	DeadlineMisses uint64
	ExpiredDrops   uint64
	ExpiredInFlash uint64
	// SLOPass is the burn-rate verdict for the mode's p99 objective.
	SLOPass bool
}

// OverloadCurve is one {mode, controller} curve across offered loads.
type OverloadCurve struct {
	Mode       string
	Controller string
	// KneeJPS is the mode's closed-loop saturation throughput (phase 1).
	KneeJPS float64
	// BaseP99Ns is the uncongested p99 response (phase 2); the SLO
	// threshold is overloadSLOFactor x this.
	BaseP99Ns      int64
	SLOThresholdNs int64
	// MaxGoodJPS is the highest goodput among SLO-passing points: the
	// configuration's usable capacity under the objective.
	MaxGoodJPS float64
	Points     []OverloadPoint
}

// OverloadReport bundles the sweep for rendering and strict gating.
type OverloadReport struct {
	Workload string
	Curves   []OverloadCurve
}

// ControlledFail reports whether the adaptive (codel) controller failed
// to hold the served tail — the verdict -slo-strict gates on. Baseline
// ("none") divergence past the knee is the experiment's expected result,
// not a regression; the adaptive controller letting p99 escape the
// threshold is. The gate compares the whole-window p99 against the
// threshold plus ~10% of slack for histogram quantization and tail-
// sample noise (the failure this gate catches is 10-50x divergence); the
// windowed burn verdicts stay in the table but are too noisy at
// smoke-run sample counts to gate CI on.
func (r *OverloadReport) ControlledFail() bool {
	for _, c := range r.Curves {
		if c.Controller != "codel" {
			continue
		}
		for _, p := range c.Points {
			if p.P99RespNs > c.SLOThresholdNs+c.SLOThresholdNs/10 {
				return true
			}
		}
	}
	return false
}

// OverloadSweep runs the three-phase overload experiment on one workload
// (default tatp) across the given offered-load fractions of each mode's
// knee (default 0.4..1.5).
func OverloadSweep(cfg ExpConfig, wl string, fracs []float64) (*OverloadReport, error) {
	if wl == "" {
		wl = "tatp"
	}
	if fracs == nil {
		fracs = []float64{0.4, 0.7, 0.9, 1.1, 1.35, 1.5}
	}
	modes := OverloadModes
	nm, nc, nf := len(modes), len(OverloadControllers), len(fracs)

	// Phase 1: each mode's knee, closed-loop (seed indices 0..nm-1).
	knees, err := runPoints(cfg, "overload knee", cfg.modePoints(0, wl, modes...), func(i int, m *Machine) (Metrics, error) {
		res := m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
		if res.ThroughputJPS == 0 {
			return Metrics{}, fmt.Errorf("no progress")
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: uncongested open-loop tail per mode (seed indices
	// nm..2nm-1).
	base, err := runPoints(cfg, "overload baseline", cfg.modePoints(nm, wl, modes...), func(i int, m *Machine) (Metrics, error) {
		gap := 1e9 / (knees[i].ThroughputJPS * overloadBaseFrac)
		res := m.RunPoisson(gap, cfg.WarmupNs, cfg.MeasureNs)
		if res.P99ResponseNs == 0 {
			return Metrics{}, fmt.Errorf("no latencies recorded")
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 3: the {mode x controller x load} grid (seed indices 2nm
	// onward).
	grid := make([]point, nm*nc*nf)
	for i := range grid {
		mode, ctl, frac := modes[i/(nc*nf)], OverloadControllers[i/nf%nc], fracs[i%nf]
		grid[i] = point{fmt.Sprintf("%s/%s/load=%g", mode, ctl, frac), 2*nm + i, cfg.options(mode, wl)}
	}
	pts, err := runPoints(cfg, "overload", grid, func(i int, m *Machine) (OverloadPoint, error) {
		mi, ci, fi := i/(nc*nf), i/nf%nc, i%nf
		mode, ctl, frac := modes[mi], OverloadControllers[ci], fracs[fi]
		knee := knees[mi].ThroughputJPS
		thr := int64(overloadSLOFactor * float64(base[mi].P99ResponseNs))

		slo := timeline.NewLatencySLO(
			fmt.Sprintf("p99<%.1fus", float64(thr)/1000), "system.response_ns", 99, thr)
		if err := m.EnableTimeline(overloadWindow(cfg.MeasureNs), []timeline.SLO{slo}); err != nil {
			return OverloadPoint{}, err
		}
		res, err := m.RunOverload(overloadRunSpec(cfg, mode, ctl, frac, knee, base[mi], thr))
		if err != nil {
			return OverloadPoint{}, err
		}
		verdicts := timeline.Evaluate(m.TimelineSamples(), []timeline.SLO{slo})
		// Shed = front-door drops only. Expired-at-dispatch drops are
		// deadline enforcement, not admission control — a request can
		// expire behind one slow flash read below the knee — so they
		// count with the deadline casualties, not the sheds.
		shed := res.AdmissionSheds + res.QueueFullDrops
		shedFrac, dropFrac := 0.0, 0.0
		if res.Offered > 0 {
			shedFrac = float64(shed) / float64(res.Offered)
			dropFrac = float64(shed+res.ExpiredDrops) / float64(res.Offered)
		}
		return OverloadPoint{
			Mode:           mode.String(),
			Controller:     ctl,
			OfferedFrac:    frac,
			OfferedJPS:     knee * frac,
			ThroughputJPS:  res.ThroughputJPS,
			GoodputJPS:     res.GoodputJPS,
			P99RespNs:      res.P99ResponseNs,
			ShedFrac:       shedFrac,
			DropFrac:       dropFrac,
			DeadlineMisses: res.DeadlineMisses,
			ExpiredDrops:   res.ExpiredDrops,
			ExpiredInFlash: res.ExpiredInFlash,
			SLOPass:        len(verdicts) == 1 && verdicts[0].Pass,
		}, nil
	})
	if err != nil {
		return nil, err
	}

	report := &OverloadReport{Workload: wl}
	for mi, mode := range modes {
		for ci, ctl := range OverloadControllers {
			thr := int64(overloadSLOFactor * float64(base[mi].P99ResponseNs))
			curve := OverloadCurve{
				Mode:           mode.String(),
				Controller:     ctl,
				KneeJPS:        knees[mi].ThroughputJPS,
				BaseP99Ns:      base[mi].P99ResponseNs,
				SLOThresholdNs: thr,
				Points:         pts[(mi*nc+ci)*nf : (mi*nc+ci+1)*nf],
			}
			for _, p := range curve.Points {
				if p.SLOPass && p.GoodputJPS > curve.MaxGoodJPS {
					curve.MaxGoodJPS = p.GoodputJPS
				}
			}
			report.Curves = append(report.Curves, curve)
		}
	}
	return report, nil
}

// overloadWindow sizes the timeline sampling interval so each point gets
// enough windows for the burn rules without drowning in samples.
func overloadWindow(measureNs int64) int64 {
	w := measureNs / 12
	if w < 100_000 {
		w = 100_000
	}
	return w
}

// overloadRunSpec derives one grid point's run: offered rate from the
// knee, deadline and controller tuning from the uncongested baseline.
func overloadRunSpec(cfg ExpConfig, mode Mode, ctl string, frac, kneeJPS float64, base Metrics, sloThrNs int64) OverloadRun {
	r := OverloadRun{
		Shape:      "poisson",
		MeanGapNs:  1e9 / (kneeJPS * frac),
		Controller: ctl,
		// The bounded admission queue: deep enough that the baseline's
		// tail visibly diverges past the knee, bounded so memory and
		// served-queue delay cannot grow without limit.
		QueueLimit: 256 * cfg.Cores,
		// Every request carries the SLO threshold as its deadline;
		// completions past it are counted, not silently served late.
		DeadlineNs:  sloThrNs,
		DropExpired: ctl != "none",
		WarmupNs:    cfg.WarmupNs,
		MeasureNs:   cfg.MeasureNs,
	}
	if r.DropExpired {
		// Shed at dispatch once less than one uncongested p99 of budget
		// remains: such a request makes its deadline only by beating the
		// service tail, and under sustained overload the just-under-the-
		// wire cohort it belongs to is exactly what becomes the served
		// p99 (several percent of completions all landing past the
		// deadline).
		r.ExpiryMarginNs = base.P99ResponseNs
	}
	switch ctl {
	case "static":
		// Cap in-system concurrency where the queue behind the cores
		// still clears within the SLO threshold: the last admitted
		// request waits ~limit/cores service times, so limit scales as
		// threshold over mean service (Little's law at the bound). The
		// factor of two is burst headroom — high service-time variance
		// (a sync flash read holding a core) piles arrivals up well past
		// the mean without the system being overloaded, and a static
		// limit must not shed those.
		limit := int(2 * float64(sloThrNs) / float64(base.MeanServiceNs) * float64(cfg.Cores))
		if limit < 4*cfg.Cores {
			limit = 4 * cfg.Cores
		}
		r.StaticLimit = limit
	case "codel":
		// Queueing-delay target well under the headroom the SLO
		// threshold (2x base p99) leaves for queueing: the episode
		// equilibrium oscillates around the target, so the served tail
		// carries a few targets' worth of queueing on top of the base
		// p99. The entry filter (a full response-time interval of
		// sustained delay) is what keeps a target this tight from
		// shedding below the knee.
		target := base.P99ResponseNs / 8
		if target < 1_000 {
			target = 1_000
		}
		// The interval must exceed one service time, or a single slow
		// request below the knee reads as a standing-queue episode (the
		// Flash-Sync modes hold the head of line for a full flash read).
		// Episode entry lags by one interval, but once shedding starts
		// the fast-attack ramp sets the pace, so a long interval does
		// not loosen the tail bound.
		interval := base.P99ResponseNs
		if interval < 2*target {
			interval = 2 * target
		}
		r.CoDelTargetNs = target
		r.CoDelIntervalNs = interval
	}
	return r
}

// RenderOverload formats the sweep: the per-point grid and a capacity
// summary reporting each configuration's max goodput under its SLO.
func RenderOverload(r *OverloadReport) string {
	var rows [][]string
	for _, c := range r.Curves {
		for i, p := range c.Points {
			label := ""
			if i == 0 {
				label = fmt.Sprintf("%s/%s", c.Mode, c.Controller)
			}
			verdict := "PASS"
			if !p.SLOPass {
				verdict = "FAIL"
			}
			rows = append(rows, []string{
				label,
				fmt.Sprintf("%.2f", p.OfferedFrac),
				fmt.Sprintf("%.0f", p.OfferedJPS),
				fmt.Sprintf("%.0f", p.GoodputJPS),
				fmt.Sprintf("%.1f", float64(p.P99RespNs)/1000),
				fmt.Sprintf("%.1f%%", p.ShedFrac*100),
				fmt.Sprintf("%d", p.DeadlineMisses+p.ExpiredDrops),
				verdict,
			})
		}
	}
	out := renderTable(
		fmt.Sprintf("Overload: served p99 and goodput vs offered load (%s), SLO p99 < %.0fx uncongested", r.Workload, overloadSLOFactor),
		[]string{"system/controller", "load", "offered j/s", "goodput j/s", "p99 (us)", "shed", "late", "SLO"},
		rows)

	var sum [][]string
	for _, c := range r.Curves {
		sum = append(sum, []string{
			c.Mode,
			c.Controller,
			fmt.Sprintf("%.0f", c.KneeJPS),
			fmt.Sprintf("%.1f", float64(c.SLOThresholdNs)/1000),
			fmt.Sprintf("%.0f", c.MaxGoodJPS),
			fmt.Sprintf("%.2f", c.MaxGoodJPS/c.KneeJPS),
		})
	}
	out += "\n" + renderTable("Overload capacity: max goodput meeting the SLO",
		[]string{"system", "controller", "knee j/s", "SLO thr (us)", "max good j/s", "vs knee"}, sum)
	return out
}

// PlotOverload renders the AstriFlash hockey stick and goodput curves as
// ASCII charts, one series per controller (the full grid is in the
// table; the charts show the headline system).
func PlotOverload(r *OverloadReport) string {
	var tail, good []stats.Series
	for _, c := range r.Curves {
		if c.Mode != AstriFlash.String() {
			continue
		}
		ts := stats.Series{Name: c.Controller}
		gs := stats.Series{Name: c.Controller}
		for _, p := range c.Points {
			ts.X = append(ts.X, p.OfferedFrac)
			ts.Y = append(ts.Y, math.Max(float64(p.P99RespNs)/1000, 1))
			gs.X = append(gs.X, p.OfferedFrac)
			gs.Y = append(gs.Y, p.GoodputJPS)
		}
		tail = append(tail, ts)
		good = append(good, gs)
	}
	hockey := stats.Plot{
		Title:  "AstriFlash: served p99 (us) vs offered load (x knee)",
		XLabel: "offered load",
		YLabel: "p99 (us)",
		Width:  64,
		Height: 18,
		LogY:   true,
		Series: tail,
	}.Render()
	goodput := stats.Plot{
		Title:  "AstriFlash: goodput (jobs/s) vs offered load (x knee)",
		XLabel: "offered load",
		YLabel: "goodput",
		Width:  64,
		Height: 18,
		Series: good,
	}.Render()
	return hockey + "\n" + goodput
}
