package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Counter is a monotonically increasing event tally.
type Counter struct {
	n uint64
}

// Add increments the counter by d.
func (c *Counter) Add(d uint64) { c.n += d }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n++ }

// Value returns the current tally.
func (c *Counter) Value() uint64 { return c.n }

// Rate returns events per second over the given span in nanoseconds.
func (c *Counter) Rate(spanNs int64) float64 {
	if spanNs <= 0 {
		return 0
	}
	return float64(c.n) / (float64(spanNs) / 1e9)
}

// Ratio is a hit/miss style two-way tally.
type Ratio struct {
	Hits   uint64
	Misses uint64
}

// Hit records a hit.
func (r *Ratio) Hit() { r.Hits++ }

// Miss records a miss.
func (r *Ratio) Miss() { r.Misses++ }

// Total returns hits plus misses.
func (r *Ratio) Total() uint64 { return r.Hits + r.Misses }

// MissRatio returns misses / total, or 0 when empty.
func (r *Ratio) MissRatio() float64 {
	t := r.Total()
	if t == 0 {
		return 0
	}
	return float64(r.Misses) / float64(t)
}

// Sample accumulates raw float64 observations for exact descriptive
// statistics; use it where observation counts are modest (per-sweep
// summaries), and Histogram where they are not.
type Sample struct {
	xs     []float64
	sorted bool
}

// Add appends one observation.
func (s *Sample) Add(x float64) {
	s.xs = append(s.xs, x)
	s.sorted = false
}

// Mean returns the arithmetic mean, or 0 when empty.
func (s *Sample) Mean() float64 {
	if len(s.xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range s.xs {
		sum += x
	}
	return sum / float64(len(s.xs))
}

// Percentile returns the exact p-th percentile using the nearest-rank
// method. It returns 0 when empty.
func (s *Sample) Percentile(p float64) float64 {
	if len(s.xs) == 0 {
		return 0
	}
	if !s.sorted {
		sort.Float64s(s.xs)
		s.sorted = true
	}
	if p <= 0 {
		return s.xs[0]
	}
	rank := int(math.Ceil(p / 100 * float64(len(s.xs))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s.xs) {
		rank = len(s.xs)
	}
	return s.xs[rank-1]
}

// Table renders rows of labeled values as an aligned text table; it is the
// single formatter used by the bench harness so every figure/table prints
// uniformly.
type Table struct {
	Header []string
	Rows   [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with column alignment.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, hd := range t.Header {
		widths[i] = len(hd)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}
