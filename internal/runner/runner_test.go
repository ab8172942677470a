package runner

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 100} {
		got, err := Map(37, workers, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 37 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapRunsEveryIndexExactlyOnce(t *testing.T) {
	var counts [64]atomic.Int32
	_, err := Map(64, 8, func(i int) (struct{}, error) {
		counts[i].Add(1)
		return struct{}{}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		_, err := Map(16, workers, func(i int) (int, error) {
			if i == 5 {
				return 0, fmt.Errorf("point %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want wrapped boom", workers, err)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, 4, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || len(got) != 0 {
		t.Fatalf("empty map: %v, %v", got, err)
	}
}

func TestSeedDeterministicAndDistinct(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := Seed(0xa57f, i)
		if s == 0 {
			t.Fatalf("index %d derived seed 0 (reserved for defaults)", i)
		}
		if s != Seed(0xa57f, i) {
			t.Fatalf("index %d: derivation not deterministic", i)
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide on seed %x", prev, i, s)
		}
		seen[s] = i
	}
	if Seed(1, 0) == Seed(2, 0) {
		t.Fatal("different bases derived the same point seed")
	}
}

func TestWorkersResolution(t *testing.T) {
	if got := Workers(7); got != 7 {
		t.Fatalf("explicit workers = %d, want 7", got)
	}
	t.Setenv(EnvWorkers, "3")
	if got := Workers(0); got != 3 {
		t.Fatalf("env workers = %d, want 3", got)
	}
	t.Setenv(EnvWorkers, "not-a-number")
	if got := Workers(0); got < 1 {
		t.Fatalf("fallback workers = %d, want >= 1", got)
	}
}
