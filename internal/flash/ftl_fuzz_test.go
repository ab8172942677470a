package flash

import (
	"testing"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// ftlFuzzKeys is how many distinct LPNs a FuzzFTL case writes: half at the
// bottom of the logical range, half at the top. Sixteen live pages fit in
// any one plane, so no write sequence can over-fill a plane however the
// round-robin striping lands them.
const ftlFuzzKeys = 16

// FuzzFTL drives a tiny device (4 planes of 16 four-page blocks, so GC
// runs every few writes per plane) through fuzzed WritePage and ReadPage
// sequences. The fault byte turns on program/erase failures, which retire
// blocks and remap their live pages, and raw bit errors, whose
// uncorrectable reads remap the page read. After every step the FTL
// invariants must hold and the mapped LPNs must be exactly the ones
// written or remapped, so a block owner that truncated or aliased an LPN
// fails the case.
func FuzzFTL(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed uint64, faults byte, ops []byte) {
		cfg := smallConfig()
		cfg.PagesPerBlock = 4
		cfg.PEFailProb = []float64{0, 0.005, 0.01}[faults%3]
		cfg.RBER = []float64{0, 3e-3, 0.5}[faults/3%3]
		cfg.Seed = seed
		eng := sim.NewEngine()
		d := NewDevice(eng, cfg)
		top := d.LogicalPages() - 1
		mapped := map[mem.PageNum]bool{}
		for n, op := range ops {
			// Half of a plane's blocks retired is far past what these
			// failure rates reach in 512 steps; stop before the device
			// runs out of reclaimable blocks by design.
			if n == 512 || maxBadPerPlane(d) >= cfg.BlocksPerPlane/2 {
				break
			}
			i := uint64(op % ftlFuzzKeys)
			lpn := mem.PageNum(i)
			if i >= ftlFuzzKeys/2 {
				lpn = mem.PageNum(top - (i - ftlFuzzKeys/2))
			}
			if op&0x80 == 0 {
				writeSync(eng, d, lpn)
				mapped[lpn] = true
			} else {
				r := d.ReadPage(lpn)
				eng.RunUntil(r.At)
				if r.Err != nil {
					mapped[lpn] = true // remapped to fresh cells
					eng.RunUntil(d.ReadRecovered(lpn))
				}
			}
			if msg := d.CheckFTLInvariants(); msg != "" {
				t.Fatalf("step %d (lpn %d): %s", n, lpn, msg)
			}
			if len(d.ftl) != len(mapped) {
				t.Fatalf("step %d: %d FTL entries, %d LPNs written or remapped", n, len(d.ftl), len(mapped))
			}
			for l := range mapped {
				if _, ok := d.ftl[l]; !ok {
					t.Fatalf("step %d: lpn %d lost its FTL entry", n, l)
				}
			}
		}
	})
}

// maxBadPerPlane returns the most retired blocks any one plane holds.
func maxBadPerPlane(d *Device) int {
	most := 0
	for p := range d.planes {
		n := 0
		for b := range d.planes[p].blocks {
			if d.planes[p].blocks[b].bad() {
				n++
			}
		}
		most = max(most, n)
	}
	return most
}
