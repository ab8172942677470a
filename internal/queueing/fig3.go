package queueing

import "math"

// Fig3Params are the analytical parameters from the paper's Section III-A:
// every Service nanoseconds of execution triggers one flash access of
// Flash nanoseconds; OS-Swap pays OSOverhead per access on the core,
// AstriFlash pays SwitchOverhead.
type Fig3Params struct {
	Service        float64 // mean per-request service time, ns (paper: 10 us)
	Flash          float64 // flash access latency, ns (paper: 50 us)
	OSOverhead     float64 // page fault + context switch, ns (paper: 10 us)
	SwitchOverhead float64 // user-level switch + flush, ns (paper: ~0.1-0.2 us)
}

// DefaultFig3Params returns the paper's Figure 3 assumptions.
func DefaultFig3Params() Fig3Params {
	return Fig3Params{
		Service:        10_000,
		Flash:          50_000,
		OSOverhead:     10_000,
		SwitchOverhead: 200,
	}
}

// CurvePoint is one (normalized load, normalized 99p latency) pair.
type CurvePoint struct {
	Load    float64 // throughput normalized to DRAM-only max throughput
	Latency float64 // 99p response normalized to DRAM-only mean service
}

// Curve is one system's tail-latency/throughput trade-off.
type Curve struct {
	System   string
	MaxLoad  float64 // achievable throughput, normalized to DRAM-only
	Points   []CurvePoint
	Servers  int     // k in the M/M/k model (1 for run-to-completion)
	HoldTime float64 // per-logical-server holding time, ns
}

// systemModel captures how a configuration maps onto a queueing model:
// the time a request holds a logical server (hold) and the time it
// occupies the physical core (occupancy). k = hold/occupancy logical
// servers share the core; k == 1 degenerates to M/M/1.
type systemModel struct {
	name      string
	hold      float64
	occupancy float64
}

func (p Fig3Params) models() []systemModel {
	return []systemModel{
		{name: "DRAM-only", hold: p.Service, occupancy: p.Service},
		{
			name:      "AstriFlash",
			hold:      p.Service + p.Flash + p.SwitchOverhead,
			occupancy: p.Service + p.SwitchOverhead,
		},
		{
			name:      "OS-Swap",
			hold:      p.Service + p.Flash + p.OSOverhead,
			occupancy: p.Service + p.OSOverhead,
		},
		// Flash-Sync never releases the core during the flash access.
		{name: "Flash-Sync", hold: p.Service + p.Flash, occupancy: p.Service + p.Flash},
	}
}

// serverCount rounds hold/occupancy to the nearest logical-server count:
// k requests overlap the flash accesses on one physical core (paper
// Section III-A's M/M/k framing).
func serverCount(hold, occupancy float64) int {
	k := int(math.Floor(hold/occupancy + 0.5))
	if k < 1 {
		k = 1
	}
	return k
}

// Curves computes 99th-percentile latency curves over a sweep of offered
// loads for the four Figure 3 systems. Loads and latencies are normalized
// exactly as the paper plots them: load relative to DRAM-only saturation,
// latency relative to DRAM-only mean service time.
func (p Fig3Params) Curves(percentile float64, points int) []Curve {
	if points < 2 {
		points = 2
	}
	dramMu := 1 / p.Service
	var curves []Curve
	for _, m := range p.models() {
		k := serverCount(m.hold, m.occupancy)
		mu := 1 / m.hold
		maxLambda := float64(k) * mu
		c := Curve{
			System:   m.name,
			MaxLoad:  maxLambda / dramMu,
			Servers:  k,
			HoldTime: m.hold,
		}
		for i := 0; i < points; i++ {
			frac := 0.05 + 0.93*float64(i)/float64(points-1)
			lambda := frac * maxLambda
			var resp float64
			var err error
			if k == 1 {
				resp, err = MM1{Lambda: lambda, Mu: mu}.ResponsePercentile(percentile)
			} else {
				resp, err = MMK{Lambda: lambda, Mu: mu, K: k}.ResponsePercentile(percentile)
			}
			if err != nil {
				continue
			}
			c.Points = append(c.Points, CurvePoint{
				Load:    lambda / dramMu,
				Latency: resp / p.Service,
			})
		}
		curves = append(curves, c)
	}
	return curves
}
