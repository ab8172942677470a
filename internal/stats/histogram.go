// Package stats provides the measurement machinery for AstriFlash
// experiments: latency histograms with percentile queries, throughput
// counters, and small descriptive-statistics helpers.
package stats

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is a log-bucketed latency histogram in the style of HDR
// histograms. Values are recorded in nanoseconds with bounded relative
// error (one part in 2^subBits per bucket), so tail percentiles of
// multi-million-sample runs are cheap to query and memory stays constant.
//
// Buckets live in a dense slice indexed by bucket number — Record is a
// shift, a mask, and an array increment, with no hashing; the bucket
// index space for int64 values is small (~15 KB of counters at the
// default precision). The slice is allocated by the first Record, not by
// NewHistogram: a simulated machine registers dozens of histograms and
// most configurations never record into many of them, so eager buckets
// were half of a small machine's construction bytes.
type Histogram struct {
	subBits uint
	buckets []uint64
	count   uint64
	sum     float64
	min     int64
	max     int64
}

const defaultSubBits = 5 // ~3% relative bucket width

// numBuckets bounds the bucket index for any non-negative int64: indexes
// run up to (62-subBits+1)<<subBits + (2^subBits - 1).
func numBuckets(subBits uint) int { return (64 - int(subBits)) << subBits }

// NewHistogram returns an empty histogram with default precision.
func NewHistogram() *Histogram {
	return &Histogram{
		subBits: defaultSubBits,
		min:     math.MaxInt64,
		max:     math.MinInt64,
	}
}

func (h *Histogram) bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	if v < (1 << h.subBits) {
		return int(v)
	}
	exp := 63 - bits.LeadingZeros64(uint64(v))
	shift := uint(exp) - h.subBits
	sub := int(v>>shift) & ((1 << h.subBits) - 1)
	return int(uint(exp-int(h.subBits)+1))<<h.subBits + sub
}

func (h *Histogram) bucketLow(b int) int64 {
	if b < (1 << h.subBits) {
		return int64(b)
	}
	exp := uint(b>>h.subBits) + h.subBits - 1
	sub := int64(b & ((1 << h.subBits) - 1))
	return (1 << exp) + sub<<(exp-h.subBits)
}

// Record adds one observation. Negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	if h.buckets == nil {
		h.buckets = make([]uint64, numBuckets(h.subBits))
	}
	h.buckets[h.bucketOf(v)]++
	h.count++
	h.sum += float64(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count }

// Mean returns the arithmetic mean, or 0 when empty.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min returns the smallest observation, or 0 when empty.
func (h *Histogram) Min() int64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 when empty.
func (h *Histogram) Max() int64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile returns an estimate of the p-th percentile (0 < p <= 100).
// The estimate is the lower bound of the bucket containing the rank, so
// it is within one bucket width (~3%) of the true order statistic. The
// true maximum is returned for ranks falling in the top bucket.
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p <= 0 {
		return h.min
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for k, c := range h.buckets {
		if c == 0 {
			continue
		}
		cum += c
		if cum >= rank {
			low := h.bucketLow(k)
			if low < h.min {
				low = h.min
			}
			if low > h.max {
				low = h.max
			}
			return low
		}
	}
	return h.max
}

// CountAbove returns the number of observations strictly above v, at
// bucket resolution: observations sharing v's bucket are not counted, so
// the result can undercount by up to one bucket width (~3%).
func (h *Histogram) CountAbove(v int64) uint64 {
	var n uint64
	for k := h.bucketOf(v) + 1; k < len(h.buckets); k++ {
		n += h.buckets[k]
	}
	return n
}

// WindowStats summarizes one measurement window of a histogram: the
// observations recorded between two Advance calls on a HistogramWindow.
type WindowStats struct {
	Count uint64
	Mean  float64
	P50   int64
	P99   int64
	P999  int64
	// Above holds, for each threshold passed to Advance, the window's
	// count of observations strictly above it (bucket resolution).
	Above []uint64
}

// HistogramWindow turns a cumulative histogram into a sequence of window
// views: each Advance returns the distribution of only the observations
// recorded since the previous Advance. The window keeps a private copy of
// the source's bucket counts, so the source histogram is never mutated —
// cumulative queries on it remain valid. Window percentiles are bucket
// lower bounds (the same ~3% resolution as the cumulative ones), without
// the exact min/max clamp, since per-window extrema are not tracked.
type HistogramWindow struct {
	src       *Histogram
	prev      []uint64
	prevCount uint64
	prevSum   float64
}

// NewHistogramWindow starts a window view at src's current contents:
// observations already recorded are excluded from the first Advance.
func NewHistogramWindow(src *Histogram) *HistogramWindow {
	w := &HistogramWindow{src: src, prev: make([]uint64, numBuckets(src.subBits))}
	copy(w.prev, src.buckets)
	w.prevCount = src.count
	w.prevSum = src.sum
	return w
}

// Advance returns statistics over the observations recorded since the last
// Advance (or since NewHistogramWindow) and rolls the window forward.
// Each threshold yields one Above entry counting the window's observations
// strictly above it.
func (w *HistogramWindow) Advance(thresholds ...int64) WindowStats {
	h := w.src
	count := h.count - w.prevCount
	st := WindowStats{Count: count}
	if len(thresholds) > 0 {
		st.Above = make([]uint64, len(thresholds))
	}
	if count > 0 {
		st.Mean = (h.sum - w.prevSum) / float64(count)
		r50 := uint64(math.Ceil(0.50 * float64(count)))
		r99 := uint64(math.Ceil(0.99 * float64(count)))
		r999 := uint64(math.Ceil(0.999 * float64(count)))
		var cum uint64
		for k := range h.buckets {
			d := h.buckets[k] - w.prev[k]
			if d == 0 {
				continue
			}
			low := h.bucketLow(k)
			prev := cum
			cum += d
			if prev < r50 && cum >= r50 {
				st.P50 = low
			}
			if prev < r99 && cum >= r99 {
				st.P99 = low
			}
			if prev < r999 && cum >= r999 {
				st.P999 = low
			}
			for ti, thr := range thresholds {
				if low > thr {
					st.Above[ti] += d
				}
			}
		}
	}
	copy(w.prev, h.buckets)
	w.prevCount = h.count
	w.prevSum = h.sum
	return st
}

// Merge adds all observations of other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.subBits != h.subBits {
		panic("stats: merging histograms with different precision")
	}
	if h.buckets == nil && other.buckets != nil {
		h.buckets = make([]uint64, len(other.buckets))
	}
	for k, c := range other.buckets {
		h.buckets[k] += c
	}
	h.count += other.count
	h.sum += other.sum
	if other.count > 0 {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
}

// Reset discards all observations, retaining the bucket storage.
func (h *Histogram) Reset() {
	clear(h.buckets)
	h.count = 0
	h.sum = 0
	h.min = math.MaxInt64
	h.max = math.MinInt64
}

// String summarizes the distribution for logs and reports.
func (h *Histogram) String() string {
	if h.count == 0 {
		return "histogram{empty}"
	}
	return fmt.Sprintf("histogram{n=%d mean=%.0f p50=%d p95=%d p99=%d max=%d}",
		h.count, h.Mean(), h.Percentile(50), h.Percentile(95), h.Percentile(99), h.max)
}
