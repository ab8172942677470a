package system

// Latency attribution: every nanosecond a request spends is charged to
// one bucket, so a run can answer "where does the time go" per
// configuration — the quantitative form of the paper's Section II-C
// overhead taxonomy (core-side vs memory-side).

// attrBucket labels one attribution category.
type attrBucket int

// Attribution buckets.
const (
	attrCompute    attrBucket = iota // workload execution
	attrOnChip                       // L1/L2/LLC latency
	attrWalk                         // page-table walks
	attrDRAM                         // DRAM-cache hit service
	attrFlash                        // waiting on flash fetches
	attrFlashRetry                   // read-retry ladder + recovery time inside flash waits
	attrSched                        // flush + switch + wait-for-core after ready
	attrOS                           // page-fault path, context switches, shootdowns
	attrBucketCount
)

// attrNames in presentation order.
var attrNames = [attrBucketCount]string{
	"compute", "on-chip", "pt-walk", "dram-cache", "flash-wait", "flash-retry", "scheduling", "os-paging",
}

// attribution accumulates per-bucket nanoseconds during the measurement
// window. Buckets overlap wall-clock (flash waits of parked threads run
// concurrently with other jobs' compute), so totals are request-time, not
// core-time.
type attribution struct {
	ns [attrBucketCount]int64
}

// attrAt charges d nanoseconds to bucket b as of logical event time at
// (the current instant for an event's own work; for a stage the flattened
// path runs inline, the instant its event would have fired), when at lies
// inside the measurement window (measuredAt in observe.go).
func (s *System) attrAt(b attrBucket, d, at int64) {
	if d <= 0 || !s.measuredAt(at) {
		return
	}
	s.attr.ns[b] += d
}

// Breakdown is the exported per-bucket view.
type Breakdown struct {
	Bucket string
	Ns     int64
	// Fraction of the total attributed request time.
	Fraction float64
}

// LatencyBreakdown returns the measurement window's attribution,
// presentation-ordered, with fractions of the attributed total.
func (s *System) LatencyBreakdown() []Breakdown {
	var total int64
	for _, v := range s.attr.ns {
		total += v
	}
	out := make([]Breakdown, 0, attrBucketCount)
	for b := attrBucket(0); b < attrBucketCount; b++ {
		frac := 0.0
		if total > 0 {
			frac = float64(s.attr.ns[b]) / float64(total)
		}
		out = append(out, Breakdown{Bucket: attrNames[b], Ns: s.attr.ns[b], Fraction: frac})
	}
	return out
}
