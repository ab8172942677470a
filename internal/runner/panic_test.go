package runner

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"
)

func TestMapRecoversWorkerPanic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, err := Map(8, workers, func(i int) (int, error) {
			if i == 5 {
				panic("pathological sweep point")
			}
			return i, nil
		})
		if err == nil {
			t.Fatalf("workers=%d: panic was not surfaced as an error", workers)
		}
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: error %T is not a *PanicError", workers, err)
		}
		if pe.Index != 5 {
			t.Fatalf("workers=%d: panic attributed to point %d, want 5", workers, pe.Index)
		}
		if pe.Value != "pathological sweep point" {
			t.Fatalf("workers=%d: panic value %v lost", workers, pe.Value)
		}
		if len(pe.Stack) == 0 || !strings.Contains(err.Error(), "sweep point 5") {
			t.Fatalf("workers=%d: error lacks stack or point index: %v", workers, err)
		}
	}
}

func TestMapPanicDoesNotPoisonOtherPoints(t *testing.T) {
	// Point 1 panics while point 0 is still running: point 0 starts
	// first and is held until point 1's panic unwinds. Map must return
	// the panic as point 1's *PanicError, and point 0 must run to
	// completion without the panic crashing the process.
	started, release := make(chan struct{}), make(chan struct{})
	var finished atomic.Bool
	_, err := Map(4, 2, func(i int) (int, error) {
		switch i {
		case 0:
			close(started)
			<-release
			finished.Store(true)
		case 1:
			<-started
			defer close(release)
			panic("point 1 failed")
		}
		return i * i, nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %v (%T) is not a *PanicError", err, err)
	}
	if pe.Index != 1 || pe.Value != "point 1 failed" {
		t.Fatalf("panic attributed to point %d with value %v, want point 1", pe.Index, pe.Value)
	}
	if !finished.Load() {
		t.Fatal("point 0 did not finish after point 1 panicked")
	}
}
