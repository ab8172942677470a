package astriflash

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"astriflash/internal/runner"
)

// TestSweepPointTimeoutNamesPoint drives the sweep driver's error path end
// to end: a point that overruns ExpConfig.PointTimeout panics inside the
// engine, and the sweep returns that panic as an ordinary error naming the
// experiment and the point, with the engine's diagnostics attached.
func TestSweepPointTimeoutNamesPoint(t *testing.T) {
	cfg := detExp()
	cfg.Workers = 1 // the first point, Flash-Sync, is the one that fails
	cfg.PointTimeout = time.Nanosecond
	_, err := Table2ServiceLatency(cfg, "tatp")
	if err == nil {
		t.Fatal("a 1 ns point timeout did not fail the sweep")
	}
	if want := fmt.Sprintf("table2 %s: ", FlashSync); !strings.HasPrefix(err.Error(), want) {
		t.Fatalf("error does not start with %q: %v", want, err)
	}
	var pe *runner.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T does not wrap a *runner.PanicError: %v", err, err)
	}
	if msg := fmt.Sprint(pe.Value); !strings.Contains(msg, "wall-clock deadline exceeded") {
		t.Fatalf("panic value lacks the engine's deadline diagnostics: %s", msg)
	}
}
