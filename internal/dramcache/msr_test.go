package dramcache

import (
	"testing"

	"astriflash/internal/mem"
)

// FuzzMSR drives the array MSR with Allocate, Complete and Lookup calls
// decoded from ops, against a model in plain maps: the set of tracked
// pages and the counter values it implies. The first two bytes pick a
// geometry of 1-4 sets by 1-4 ways, and pages come from a 24-page pool,
// so sets fill and duplicates recur. Completing an untracked page must
// panic and leave the MSR unchanged. After every call the outcome, the
// counters, Outstanding and the MSR's own check must match the model.
func FuzzMSR(f *testing.F) {
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 2, 1, 1, 1, 1, 2, 1})
	f.Add([]byte{3, 3, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 1, 3, 2, 3, 0, 9})
	f.Add([]byte{1, 0, 0, 7, 0, 8, 0, 9, 1, 8, 0, 10, 1, 7, 1, 7, 2, 10})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) < 2 {
			return
		}
		sets, ways := 1+int(ops[0]%4), 1+int(ops[1]%4)
		m := NewMSR(sets, ways)
		tracked := map[mem.PageNum]bool{}
		perSet := map[int]int{}
		var allocs, dups, fulls uint64
		for i := 2; i+1 < len(ops); i += 2 {
			p := mem.PageNum(ops[i+1] % 24)
			s := m.setOf(p)
			switch ops[i] % 3 {
			case 0:
				want := AllocNew
				switch {
				case tracked[p]:
					want = AllocDup
					dups++
				case perSet[s] >= ways:
					want = AllocFull
					fulls++
				default:
					tracked[p] = true
					perSet[s]++
					allocs++
				}
				if got := m.Allocate(p); got != want {
					t.Fatalf("op %d: Allocate(%d) = %v, want %v", i, p, got, want)
				}
			case 1:
				panicked := func() (panicked bool) {
					defer func() { panicked = recover() != nil }()
					m.Complete(p)
					return false
				}()
				if panicked != !tracked[p] {
					t.Fatalf("op %d: Complete(%d) panicked %v, tracked %v", i, p, panicked, tracked[p])
				}
				if tracked[p] {
					delete(tracked, p)
					perSet[s]--
				}
			case 2:
				if got := m.Lookup(p); got != tracked[p] {
					t.Fatalf("op %d: Lookup(%d) = %v, want %v", i, p, got, tracked[p])
				}
			}
			if m.Outstanding() != len(tracked) {
				t.Fatalf("op %d: Outstanding = %d, want %d", i, m.Outstanding(), len(tracked))
			}
			if m.Allocs.Value() != allocs || m.Dups.Value() != dups || m.FullWaits.Value() != fulls {
				t.Fatalf("op %d: counters allocs/dups/full %d/%d/%d, want %d/%d/%d", i,
					m.Allocs.Value(), m.Dups.Value(), m.FullWaits.Value(), allocs, dups, fulls)
			}
			if msg := m.check(); msg != "" {
				t.Fatalf("op %d: %s", i, msg)
			}
		}
		for p := mem.PageNum(0); p < 24; p++ {
			if m.Lookup(p) != tracked[p] {
				t.Fatalf("final Lookup(%d) = %v, want %v", p, m.Lookup(p), tracked[p])
			}
		}
	})
}
