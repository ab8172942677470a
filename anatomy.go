package astriflash

import (
	"fmt"

	"astriflash/internal/runner"
	"astriflash/internal/system"
)

// BucketShare is one latency-attribution bucket's share of total request
// time.
type BucketShare = system.Breakdown

// LatencyBreakdown returns where request time went in the machine's last
// measurement window: compute, on-chip caches, page-table walks,
// DRAM-cache service, flash waits, scheduling, and OS paging. It is the
// quantitative form of the paper's Section II-C overhead taxonomy.
func (m *Machine) LatencyBreakdown() []BucketShare { return m.sys.LatencyBreakdown() }

// AnatomyRow is one configuration's request-time anatomy.
type AnatomyRow struct {
	Config string
	Shares []BucketShare
}

// Anatomy runs the given configurations on one workload and reports each
// one's latency anatomy — making visible exactly which overhead each
// design removes: OS-Swap bleeds into os-paging, Flash-Sync into
// flash-wait on the critical path, AstriFlash converts both into
// overlapped flash-wait plus a sliver of scheduling.
func Anatomy(cfg ExpConfig, workloadName string, modes []Mode) ([]AnatomyRow, error) {
	if modes == nil {
		modes = []Mode{DRAMOnly, AstriFlash, OSSwap, FlashSync}
	}
	return runner.Map(len(modes), cfg.workers(), func(i int) (AnatomyRow, error) {
		m, err := NewMachine(cfg.optionsAt(i, modes[i], workloadName))
		if err != nil {
			return AnatomyRow{}, err
		}
		m.RunSaturated(cfg.Inflight, cfg.WarmupNs, cfg.MeasureNs)
		return AnatomyRow{Config: modes[i].String(), Shares: m.LatencyBreakdown()}, nil
	})
}

// RenderAnatomy formats anatomy rows as a percentage table. Buckets that
// charged zero time in every row (e.g. flash-retry on fault-free runs)
// are omitted, so the table only shows overheads the runs actually paid.
func RenderAnatomy(rows []AnatomyRow) string {
	if len(rows) == 0 {
		return ""
	}
	nonzero := make([]bool, len(rows[0].Shares))
	for _, r := range rows {
		for i, s := range r.Shares {
			if i < len(nonzero) && s.Ns != 0 {
				nonzero[i] = true
			}
		}
	}
	header := []string{"config"}
	for i, s := range rows[0].Shares {
		if nonzero[i] {
			header = append(header, s.Bucket)
		}
	}
	var out [][]string
	for _, r := range rows {
		cells := []string{r.Config}
		for i, s := range r.Shares {
			if i < len(nonzero) && nonzero[i] {
				cells = append(cells, fmt.Sprintf("%.1f%%", s.Fraction*100))
			}
		}
		out = append(out, cells)
	}
	return renderTable("Request-time anatomy (share of attributed request time)", header, out)
}
