package dramcache

import (
	"testing"

	"astriflash/internal/mem"
	"astriflash/internal/sim"
)

// mapLedger is the reference reuse ledger: a map from region to count,
// every count halved (and dropped at 1 or less) at each decay, as the
// regionPolicy kept it before its ledger became a lazily decayed array.
type mapLedger struct {
	shift      uint
	adaptive   bool
	counts     map[uint64]uint32
	accesses   uint64
	decayEvery uint64
}

func (m *mapLedger) onAccess(p mem.PageNum, write bool) {
	if !m.adaptive || !write {
		m.counts[uint64(p)>>m.shift]++
	}
	m.accesses++
	if m.accesses%m.decayEvery == 0 {
		for r, c := range m.counts {
			if c <= 1 {
				delete(m.counts, r)
			} else {
				m.counts[r] = c / 2
			}
		}
	}
}

// TestLedgerMatchesMapReference feeds the array ledger and the map
// reference the same stream under both policies: 2^20 + 2^18 accesses
// (40 decays), reads and writes, a hot Zipf mix of regions, one region
// touched only in the first window and again at the end (idle for more
// than 32 decays), and eviction feedback that moves the adaptive bar.
// After each access the touched region's count and an Admit for a random
// page must agree; only the touched region's count can change without a
// decay, so at each decay every region's count is compared as well.
func TestLedgerMatchesMapReference(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 1.3M accesses per policy")
	}
	for _, policy := range []string{"write-threshold", "hit-economics"} {
		t.Run(policy, func(t *testing.T) {
			adm, err := NewAdmissionPolicy(AdmissionConfig{Policy: policy})
			if err != nil {
				t.Fatal(err)
			}
			rp := adm.(*regionPolicy)
			ref := &mapLedger{shift: rp.shift, adaptive: rp.adaptive,
				counts: map[uint64]uint32{}, decayEvery: rp.decayEvery}
			const regions = 256
			const idle = mem.PageNum(regions+7) << 4
			rng := sim.NewRNG(42)
			hot := mem.NewZipf(rng.Split(), regions<<rp.shift, 0.99)
			barMoves, lastBar := 0, rp.bar
			compareAll := func(at int) {
				for r := uint64(0); r <= uint64(idle)>>rp.shift; r++ {
					if got, want := rp.count(r), ref.counts[r]; got != want {
						t.Fatalf("access %d: region %d count %d, reference %d", at, r, got, want)
					}
				}
			}
			const accesses = 1<<20 + 1<<18
			for i := 0; i < accesses; i++ {
				p := mem.PageNum(hot.Next())
				if i < 40 || i >= accesses-40 {
					p = idle
				}
				write := rng.Intn(4) == 0
				rp.OnAccess(p, write, false)
				ref.onAccess(p, write)
				r := uint64(p) >> rp.shift
				if got, want := rp.count(r), ref.counts[r]; got != want {
					t.Fatalf("access %d: region %d count %d, reference %d", i, r, got, want)
				}
				q := mem.PageNum(rng.Uint64() % uint64(idle+16))
				if got, want := rp.Admit(q, write), int(ref.counts[uint64(q)>>rp.shift]) >= rp.bar; got != want {
					t.Fatalf("access %d: Admit(%d) = %v, reference %v", i, q, got, want)
				}
				if i%7 == 0 {
					rp.OnEvict(p, rng.Intn(8) < 3+int(i>>18))
				}
				if rp.bar != lastBar {
					barMoves, lastBar = barMoves+1, rp.bar
				}
				if ref.accesses%ref.decayEvery == 0 {
					compareAll(i)
				}
			}
			compareAll(accesses)
			if rp.epoch <= 33 {
				t.Fatalf("only %d decays; the idle region must wait out more than 32", rp.epoch)
			}
			if rp.adaptive && barMoves == 0 {
				t.Fatal("the adaptive bar never moved")
			}
		})
	}
}
