package dram

import (
	"testing"
	"testing/quick"
)

// dev returns a device with refresh disabled so command-timing tests can
// assert exact values; refresh behavior is tested separately.
func dev() *Device {
	t := DefaultTiming()
	t.TREFI, t.TRFC = 0, 0
	return NewDevice(t, DefaultGeometry())
}

func TestRefreshBlackoutDelaysAccess(t *testing.T) {
	d := NewDevice(DefaultTiming(), DefaultGeometry())
	// t=0 falls inside the first refresh window [0, TRFC).
	done := d.Access(0, Loc{Bank: 0, Row: 1}, 1)
	base := d.Timing.TRCD + d.Timing.TCAS + d.Timing.TBurst
	if done != d.Timing.TRFC+base {
		t.Fatalf("refresh-window access done at %d, want %d", done, d.Timing.TRFC+base)
	}
	// Outside the window, no delay.
	d2 := NewDevice(DefaultTiming(), DefaultGeometry())
	done2 := d2.Access(1000, Loc{Bank: 0, Row: 1}, 1)
	if done2 != 1000+base {
		t.Fatalf("mid-interval access done at %d, want %d", done2, 1000+base)
	}
}

func TestRefreshDisabledWhenZero(t *testing.T) {
	tm := DefaultTiming()
	tm.TREFI = 0
	if tm.refreshDelay(0) != 0 {
		t.Fatal("zero TREFI should disable refresh")
	}
	tm = DefaultTiming()
	// The blackout repeats every TREFI.
	at := 3*tm.TREFI + tm.TRFC/2
	if got := tm.refreshDelay(at); got != 3*tm.TREFI+tm.TRFC {
		t.Fatalf("repeat blackout: %d -> %d", at, got)
	}
}

func TestFirstAccessIsRowMiss(t *testing.T) {
	d := dev()
	loc := Loc{Bank: 0, Row: 5}
	done := d.Access(0, loc, 1)
	want := d.Timing.TRCD + d.Timing.TCAS + d.Timing.TBurst
	if done != want {
		t.Fatalf("closed-row access = %d, want %d", done, want)
	}
	if d.RowMisses.Value() != 1 {
		t.Fatal("row miss not counted")
	}
}

func TestOpenRowHitIsCheaper(t *testing.T) {
	d := dev()
	loc := Loc{Bank: 0, Row: 5}
	t1 := d.Access(0, loc, 1)
	t2 := d.Access(t1, loc, 1)
	hitLat := t2 - t1
	if hitLat != d.Timing.TCAS+d.Timing.TBurst {
		t.Fatalf("row hit latency = %d, want %d", hitLat, d.Timing.TCAS+d.Timing.TBurst)
	}
	if d.RowHits.Value() != 1 {
		t.Fatal("row hit not counted")
	}
}

func TestRowConflictChargesPrecharge(t *testing.T) {
	d := dev()
	t1 := d.Access(0, Loc{Bank: 0, Row: 5}, 1)
	t2 := d.Access(t1, Loc{Bank: 0, Row: 9}, 1)
	confLat := t2 - t1
	want := d.Timing.TRP + d.Timing.TRCD + d.Timing.TCAS + d.Timing.TBurst
	if confLat != want {
		t.Fatalf("conflict latency = %d, want %d", confLat, want)
	}
	if d.RowConfl.Value() != 1 {
		t.Fatal("row conflict not counted")
	}
}

func TestBankSerialization(t *testing.T) {
	d := dev()
	// Two back-to-back requests at t=0 to the same bank serialize.
	t1 := d.Access(0, Loc{Bank: 3, Row: 1}, 1)
	t2 := d.Access(0, Loc{Bank: 3, Row: 1}, 1)
	if t2 <= t1 {
		t.Fatalf("same-bank requests did not serialize: %d then %d", t1, t2)
	}
	// Different banks at t=0 proceed in parallel.
	t3 := d.Access(0, Loc{Bank: 4, Row: 1}, 1)
	if t3 != d.Timing.TRCD+d.Timing.TCAS+d.Timing.TBurst {
		t.Fatalf("cross-bank request was serialized: %d", t3)
	}
}

func TestPageTransferScalesWithBlocks(t *testing.T) {
	d := dev()
	one := dev().Access(0, Loc{Bank: 0, Row: 0}, 1)
	page := dev().Access(0, Loc{Bank: 0, Row: 0}, BlocksPerPage)
	if page-one != int64(BlocksPerPage-1)*d.Timing.TBurst {
		t.Fatalf("page transfer %d vs single %d not burst-scaled", page, one)
	}
}

func TestRowOfInterleavesBanks(t *testing.T) {
	d := dev()
	nb := d.Geometry.Banks()
	seen := map[int]bool{}
	for r := 0; r < nb; r++ {
		seen[d.RowOf(r).Bank] = true
	}
	if len(seen) != nb {
		t.Fatalf("consecutive rows map to %d banks, want %d", len(seen), nb)
	}
}

func TestRowOfStaysInGeometry(t *testing.T) {
	d := dev()
	if err := quick.Check(func(r uint32) bool {
		loc := d.RowOf(int(r))
		return loc.Bank >= 0 && loc.Bank < d.Geometry.Banks() &&
			loc.Row >= 0 && loc.Row < d.Geometry.RowsPerBank
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCompletionTimesMonotonicPerBank(t *testing.T) {
	if err := quick.Check(func(rows []uint8) bool {
		d := dev()
		var prev int64
		now := int64(0)
		for _, r := range rows {
			done := d.Access(now, Loc{Bank: 0, Row: int(r)}, 1)
			if done < prev {
				return false
			}
			prev = done
		}
		return true
	}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRowHitRatio(t *testing.T) {
	d := dev()
	loc := Loc{Bank: 0, Row: 1}
	now := d.Access(0, loc, 1)
	for i := 0; i < 9; i++ {
		now = d.Access(now, loc, 1)
	}
	if h, m, c := d.RowHits.Value(), d.RowMisses.Value(), d.RowConfl.Value(); h != 9 || m != 1 || c != 0 {
		t.Fatalf("row hits/misses/conflicts = %d/%d/%d, want 9/1/0", h, m, c)
	}
}

func TestInvalidGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid geometry did not panic")
		}
	}()
	NewDevice(DefaultTiming(), Geometry{})
}
