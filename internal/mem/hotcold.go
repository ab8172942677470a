package mem

import (
	"fmt"

	"astriflash/internal/sim"
)

// HotCold draws item indices from a two-tier popularity mixture: with
// probability HotProb the draw lands in the hot set (the first HotN items
// of the domain, Zipf-distributed within itself), otherwise uniformly in
// the cold remainder. The paper's workloads are tuned so that a 3% DRAM
// cache absorbs all but one miss per 5-25 us (Sections II-A and V-A); the
// mixture makes that calibration explicit and controllable, since a
// bounded Zipf with skew < 1 cannot concentrate 97% of its mass in 3% of
// a small scaled domain the way production datasets do.
//
// Hot items are the low indices [0, HotN). Callers choose their own
// layout: structures with positional allocation (arrays, arena-ordered
// nodes, contiguous key ranges) thereby get hot data clustered into few
// 4 KB pages — the page-level locality a page-granularity DRAM cache
// caches — while hash-placed structures spread it, as real ones do.
type HotCold struct {
	n       uint64
	hotN    uint64
	hotProb float64
	hot     *Zipf
	rng     *sim.RNG
}

// NewHotCold builds the mixture over [0, n) with a hot set of hotN items
// (clamped to [1, n-1]), hot access probability hotProb in (0,1), and
// intra-hot Zipf skew theta.
func NewHotCold(rng *sim.RNG, n, hotN uint64, hotProb, theta float64) *HotCold {
	if n < 2 {
		panic("mem: HotCold needs at least two items")
	}
	if hotProb <= 0 || hotProb >= 1 {
		panic(fmt.Sprintf("mem: HotCold hotProb %v out of (0,1)", hotProb))
	}
	if hotN == 0 {
		hotN = 1
	}
	if hotN >= n {
		hotN = n - 1
	}
	h := &HotCold{n: n, hotN: hotN, hotProb: hotProb, rng: rng}
	h.hot = NewZipf(rng.Split(), hotN, theta)
	return h
}

// Next draws an item index in [0, n).
func (h *HotCold) Next() uint64 {
	if h.rng.Float64() < h.hotProb {
		return h.hot.Next() // Zipf within the hot set, scattered inside it
	}
	cold := h.n - h.hotN
	return h.hotN + h.rng.Uint64()%cold
}
