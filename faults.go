package astriflash

// The faults experiment: graceful degradation under injected flash
// errors. Real NAND does not serve every read in one fixed latency — raw
// bit errors push reads through ECC retry ladders, and worn blocks fail
// and must be remapped. This sweep injects a raw bit error rate (RBER)
// into the device and shows the paper's architectural ordering survives:
// DRAM-only >= AstriFlash >= OS-Swap >= Flash-Sync in throughput at every
// fault rate, with 99p latency rising monotonically as the RBER grows.

import "fmt"

// FaultModes are the configurations the faults sweep compares.
var FaultModes = []Mode{DRAMOnly, AstriFlash, OSSwap, FlashSync}

// DefaultRBERs spans the interesting range for 64-bit/page ECC: at 1e-3
// the expected raw error count (~33 bits/page) is safely inside the
// correction strength and reads behave nominally; the ladder engages near
// 2e-3 (~66 bits); by 4e-3 nearly every read climbs most of the ladder
// and a visible fraction defeats it outright, exercising remapping and
// the BC's retry/fallback machinery.
var DefaultRBERs = []float64{0, 1e-3, 2e-3, 3e-3, 4e-3}

// faultsBCTimeoutNs and faultsBCRetries configure the backside
// controller's watchdog for the sweep: the 2 ms window sits above the
// worst-case retry ladder (~90 us) but below the multi-ms stalls a
// remap-induced GC storm produces, so timeouts fire exactly when the
// device is pathologically slow.
const (
	faultsBCTimeoutNs = 2_000_000
	faultsBCRetries   = 2
)

// FaultsPoint is one (RBER, configuration) cell of the sweep.
type FaultsPoint struct {
	RBER float64
	Mode string
	// NormalizedTput is throughput relative to DRAM-only at the same RBER.
	NormalizedTput float64
	Metrics        Metrics
}

// FaultsSweep runs the {RBER x configuration} grid on one workload. Each
// configuration keeps ONE derived seed across all its RBER points, so the
// workload stream is identical along the RBER axis and latency differences
// are attributable to the injected faults alone; the fault draws come from
// a device-local RNG that a fault-free device never consults, so the
// RBER=0 column is bit-identical to a run without fault injection.
func FaultsSweep(cfg ExpConfig, workloadName string, rbers []float64) ([]FaultsPoint, error) {
	if rbers == nil {
		rbers = DefaultRBERs
	}
	nm := len(FaultModes)
	var pts []point
	for _, rber := range rbers {
		for mi, mode := range FaultModes {
			o := cfg.options(mode, workloadName)
			o.RBER = rber
			o.BCReadTimeoutNs = faultsBCTimeoutNs
			o.BCReadRetries = faultsBCRetries
			// Seed per MODE, not per grid point: the RBER axis must
			// replay the same workload so the fault response is isolated.
			pts = append(pts, point{fmt.Sprintf("%s/rber=%g", mode, rber), mi, o})
		}
	}
	res, err := runPoints(cfg, "faults", pts, cfg.saturated)
	if err != nil {
		return nil, err
	}
	var out []FaultsPoint
	for ri, rber := range rbers {
		base := res[ri*nm].ThroughputJPS // FaultModes[0] is DRAM-only
		if base == 0 {
			return nil, fmt.Errorf("faults rber=%g: DRAM-only made no progress", rber)
		}
		for mi, mode := range FaultModes {
			m := res[ri*nm+mi]
			out = append(out, FaultsPoint{
				RBER:           rber,
				Mode:           mode.String(),
				NormalizedTput: m.ThroughputJPS / base,
				Metrics:        m,
			})
		}
	}
	return out, nil
}

// RenderFaults formats the sweep: per (RBER, config), throughput and its
// normalization against DRAM-only at the same fault rate, end-to-end and
// device-level tail latency, and the fault-path counter family (device
// retries/uncorrectables, BC re-issues/timeouts/fallbacks, remapped
// pages, write amplification). The device read tail ("p99 read") rises
// monotonically with the RBER in every flash-backed configuration; the
// end-to-end tail does too for AstriFlash and Flash-Sync, whose tails are
// flash-wait-dominated. OS-Swap's tail is dominated by VM-lock convoys,
// which fault-induced completion jitter can break up, so its end-to-end
// p99 may dip even as every read gets slower.
func RenderFaults(points []FaultsPoint) string {
	header := []string{"RBER", "config", "jobs/s", "vs DRAM", "p99 svc (us)", "p99 read (us)",
		"retried", "uncorr", "bc-retry", "timeout", "fallback", "remaps", "WA"}
	var rows [][]string
	for _, p := range points {
		m := p.Metrics
		rows = append(rows, []string{
			fmt.Sprintf("%.0e", p.RBER),
			p.Mode,
			fmt.Sprintf("%.0f", m.ThroughputJPS),
			fmt.Sprintf("%.3f", p.NormalizedTput),
			fmt.Sprintf("%d", m.P99ServiceNs/1000),
			fmt.Sprintf("%d", m.P99FlashReadNs/1000),
			fmt.Sprintf("%d", m.FlashRetriedReads),
			fmt.Sprintf("%d", m.FlashUncorrectables),
			fmt.Sprintf("%d", m.BCRetries),
			fmt.Sprintf("%d", m.BCTimeouts),
			fmt.Sprintf("%d", m.BCFallbacks),
			fmt.Sprintf("%d", m.FlashRemapMoves),
			fmt.Sprintf("%.2f", m.WriteAmplification),
		})
	}
	return renderTable("Faults: throughput and tail latency vs raw bit error rate", header, rows)
}
