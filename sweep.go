package astriflash

import (
	"errors"
	"fmt"

	"astriflash/internal/runner"
)

// point is one sweep point: key names it in errors, seed is the index its
// RNG seed derives from (points sharing one replay one workload stream),
// and opts are its machine options.
type point struct {
	key  string
	seed int
	opts Options
}

// machine builds point p's machine with the seed derived from (e.Seed,
// p.seed) and e's per-point wall-clock limit. The seed depends on the
// point alone, never on which worker runs it, so a sweep renders
// byte-identically for any worker count.
func (e ExpConfig) machine(p point) (*Machine, error) {
	o := p.opts
	o.Seed = runner.Seed(e.Seed, p.seed)
	o.RunTimeout = e.PointTimeout
	return NewMachine(o)
}

// modePoints returns one point per mode on workload wl, keyed by the mode
// and seeded from index first onward.
func (e ExpConfig) modePoints(first int, wl string, modes ...Mode) []point {
	pts := make([]point, len(modes))
	for i, mode := range modes {
		pts[i] = point{mode.String(), first + i, e.options(mode, wl)}
	}
	return pts
}

// saturated drives a point closed-loop over e's warm-up and measurement
// windows.
func (e ExpConfig) saturated(_ int, m *Machine) (Metrics, error) {
	return m.RunSaturated(e.Inflight, e.WarmupNs, e.MeasureNs), nil
}

// runPoints is the sweep driver every experiment runs through: it builds
// each point's machine, hands it to drive with the point's position in
// pts, and returns the results in point order. Points fan out across
// cfg.Workers goroutines (see runner.Map). Any error, a recovered
// *runner.PanicError included, comes back as "exp key: err".
func runPoints[T any](cfg ExpConfig, exp string, pts []point, drive func(i int, m *Machine) (T, error)) ([]T, error) {
	res, err := runner.Map(len(pts), cfg.Workers, func(i int) (v T, err error) {
		defer func() {
			if err != nil {
				err = fmt.Errorf("%s %s: %w", exp, pts[i].key, err)
			}
		}()
		m, err := cfg.machine(pts[i])
		if err != nil {
			return v, err
		}
		return drive(i, m)
	})
	var pe *runner.PanicError
	if errors.As(err, &pe) {
		err = fmt.Errorf("%s %s: %w", exp, pts[pe.Index].key, err)
	}
	return res, err
}
