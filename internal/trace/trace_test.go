package trace

import (
	"bytes"
	"testing"
	"testing/quick"

	"astriflash/internal/mem"
	"astriflash/internal/workload"
)

func captureSmall(t *testing.T, name string, jobs int) *Trace {
	t.Helper()
	cfg := workload.DefaultConfig()
	cfg.DatasetBytes = 4 << 20
	w, err := workload.New(name, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return Capture(w, jobs)
}

func TestCaptureShapes(t *testing.T) {
	tr := captureSmall(t, "tatp", 20)
	if tr.Jobs() != 20 {
		t.Fatalf("jobs = %d", tr.Jobs())
	}
	if len(tr.Records) == 0 {
		t.Fatal("no records captured")
	}
	total := 0
	for i := 0; i < tr.Jobs(); i++ {
		job := tr.Job(i)
		if len(job) == 0 {
			t.Fatalf("job %d empty", i)
		}
		total += len(job)
	}
	if total != len(tr.Records) {
		t.Fatalf("job partition covers %d of %d records", total, len(tr.Records))
	}
}

func TestJobOutOfRangePanics(t *testing.T) {
	tr := captureSmall(t, "tatp", 2)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range job did not panic")
		}
	}()
	tr.Job(5)
}

func TestSerializationRoundTrip(t *testing.T) {
	tr := captureSmall(t, "silo", 30)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != len(tr.Records) || got.Jobs() != tr.Jobs() {
		t.Fatalf("sizes differ: %d/%d vs %d/%d",
			len(got.Records), got.Jobs(), len(tr.Records), tr.Jobs())
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d differs: %+v vs %+v", i, got.Records[i], tr.Records[i])
		}
	}
	for i := range tr.JobEnds {
		if got.JobEnds[i] != tr.JobEnds[i] {
			t.Fatalf("job end %d differs", i)
		}
	}
}

func TestSerializationPropertyRoundTrip(t *testing.T) {
	if err := quick.Check(func(computes []uint16, addrs []uint32, writes []bool) bool {
		n := len(computes)
		if len(addrs) < n {
			n = len(addrs)
		}
		if len(writes) < n {
			n = len(writes)
		}
		tr := &Trace{}
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, Record{
				ComputeNs: int64(computes[i]),
				Addr:      mem.Addr(addrs[i]),
				Write:     writes[i],
			})
		}
		if n > 0 {
			tr.JobEnds = []int{n}
		}
		var buf bytes.Buffer
		if tr.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			return false
		}
		if len(got.Records) != n {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("not a trace at all!!"))); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSummarize(t *testing.T) {
	tr := captureSmall(t, "tatp", 100)
	s := Summarize(tr)
	if s.Accesses != len(tr.Records) || s.Jobs != 100 {
		t.Fatalf("summary counts wrong: %+v", s)
	}
	if s.DistinctPages == 0 {
		t.Fatal("no pages")
	}
	if s.WriteFraction < 0 || s.WriteFraction > 1 {
		t.Fatalf("write fraction %v", s.WriteFraction)
	}
	if s.MeanComputeNs <= 0 {
		t.Fatal("no compute")
	}
	// Skewed workloads concentrate accesses.
	if s.TopDecileShare < 0.3 {
		t.Fatalf("top decile share %.2f; skew missing", s.TopDecileShare)
	}
	if s.String() == "" {
		t.Fatal("summary did not render")
	}
}

func TestMissCurveExactOnKnownPattern(t *testing.T) {
	// Cyclic pattern over 4 pages: A B C D A B C D ...
	// LRU with capacity >= 4 hits everything after the cold misses;
	// capacity < 4 misses everything (the classic LRU cliff).
	tr := &Trace{}
	for i := 0; i < 40; i++ {
		tr.Records = append(tr.Records, Record{
			ComputeNs: 1,
			Addr:      mem.PageBase(mem.PageNum(i % 4)),
		})
	}
	tr.JobEnds = []int{40}
	curve := MissCurve(tr, []uint64{1, 2, 3, 4, 8})
	approx := func(got, want float64) bool { d := got - want; return d < 1e-9 && d > -1e-9 }
	if !approx(curve[4], 0.1) { // 4 cold misses of 40
		t.Fatalf("capacity 4 miss ratio = %v, want 0.1", curve[4])
	}
	if !approx(curve[8], 0.1) {
		t.Fatalf("capacity 8 miss ratio = %v, want 0.1", curve[8])
	}
	for _, c := range []uint64{1, 2, 3} {
		if !approx(curve[c], 1.0) {
			t.Fatalf("capacity %d miss ratio = %v, want 1.0 (LRU cliff)", c, curve[c])
		}
	}
}

func TestMissCurveMonotone(t *testing.T) {
	tr := captureSmall(t, "arrayswap", 200)
	sweep := []uint64{8, 32, 128, 512, 2048}
	curve := MissCurve(tr, sweep)
	prev := 1.1
	for _, c := range sweep {
		if curve[c] > prev+1e-12 {
			t.Fatalf("miss ratio increased with capacity: %v", curve)
		}
		prev = curve[c]
	}
}

func TestMissCurveMatchesReferenceLRU(t *testing.T) {
	// Cross-check the Fenwick stack-distance computation against a naive
	// fully associative LRU simulation.
	tr := captureSmall(t, "tatp", 50)
	for _, capPages := range []uint64{16, 64} {
		// Reference: list-based LRU.
		type node struct{ page mem.PageNum }
		var lru []node
		misses := 0
		for _, r := range tr.Records {
			p := r.Page()
			found := -1
			for i, nd := range lru {
				if nd.page == p {
					found = i
					break
				}
			}
			if found < 0 {
				misses++
				lru = append([]node{{p}}, lru...)
				if uint64(len(lru)) > capPages {
					lru = lru[:capPages]
				}
			} else {
				nd := lru[found]
				lru = append(lru[:found], lru[found+1:]...)
				lru = append([]node{nd}, lru...)
			}
		}
		want := float64(misses) / float64(len(tr.Records))
		got := MissCurve(tr, []uint64{capPages})[capPages]
		if diff := got - want; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("capacity %d: stack-distance %.6f vs reference LRU %.6f", capPages, got, want)
		}
	}
}

func TestHottestPages(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Records = append(tr.Records, Record{Addr: mem.PageBase(1)})
	}
	for i := 0; i < 5; i++ {
		tr.Records = append(tr.Records, Record{Addr: mem.PageBase(2)})
	}
	tr.Records = append(tr.Records, Record{Addr: mem.PageBase(3)})
	tr.JobEnds = []int{len(tr.Records)}
	top := HottestPages(tr, 2)
	if len(top) != 2 || top[0].Page != 1 || top[0].Count != 10 || top[1].Page != 2 {
		t.Fatalf("hottest = %+v", top)
	}
}

func TestReplayerDrivesSystem(t *testing.T) {
	tr := captureSmall(t, "tatp", 50)
	rep, err := NewReplayer(tr, 2048)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Name() == "" || rep.DatasetPages() != 2048 {
		t.Fatal("replayer metadata wrong")
	}
	// Replayed jobs must match the captured stream, cycling.
	for i := 0; i < tr.Jobs()*2; i++ {
		steps := rep.NewJobSteps(nil)
		orig := tr.Job(i % tr.Jobs())
		if len(steps) != len(orig) {
			t.Fatalf("job %d length %d vs %d", i, len(steps), len(orig))
		}
		for k := range orig {
			if steps[k].Access.Addr != orig[k].Addr {
				t.Fatalf("job %d step %d addr mismatch", i, k)
			}
		}
	}
}

func TestReplayerValidation(t *testing.T) {
	if _, err := NewReplayer(&Trace{}, 100); err == nil {
		t.Fatal("empty trace accepted")
	}
	tr := &Trace{
		Records: []Record{{Addr: mem.PageBase(5000)}},
		JobEnds: []int{1},
	}
	if _, err := NewReplayer(tr, 100); err == nil {
		t.Fatal("out-of-range trace accepted")
	}
}

func TestFenwick(t *testing.T) {
	f := newFenwick(10)
	f.add(2, 1)
	f.add(5, 1)
	f.add(9, 1)
	if f.rangeSum(0, 9) != 3 {
		t.Fatalf("total = %d", f.rangeSum(0, 9))
	}
	if f.rangeSum(3, 8) != 1 {
		t.Fatalf("mid = %d", f.rangeSum(3, 8))
	}
	f.add(5, -1)
	if f.rangeSum(3, 8) != 0 {
		t.Fatal("removal not reflected")
	}
	if f.rangeSum(5, 2) != 0 {
		t.Fatal("inverted range should be empty")
	}
}
