package system

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"sync"
	"testing"

	"astriflash/internal/obs"
)

var updateFixture = flag.Bool("update", false, "regenerate testdata/outputs.txt from the current code")

// fixtureFile freezes the per-access path's observable outputs over 14
// configurations: the full Result, the span count and a hash of the
// canonically sorted span stream. It was recorded from the
// one-event-per-stage chain the per-access path (flat.go) was folded
// from, so it pins that path to the chain's outputs bit for bit.
const fixtureFile = "testdata/outputs.txt"

// fixtureCase is one recorded configuration.
type fixtureCase struct {
	mode Mode
	wl   string
	open bool
}

func (fc fixtureCase) name() string {
	loop := "closed"
	if fc.open {
		loop = "open"
	}
	return fmt.Sprintf("%v/%s/%s", fc.mode, fc.wl, loop)
}

// The fixture's cases come in three groups, one per test: every mode
// over tatp under a saturated closed loop, every other workload under full
// AstriFlash (the richest event interleaving), and the open-loop RunSource
// path (admission, expiry shedding and the drain phase).
func modeCases() []fixtureCase {
	var cs []fixtureCase
	for _, m := range Modes() {
		cs = append(cs, fixtureCase{mode: m, wl: "tatp"})
	}
	return cs
}

func workloadCases() []fixtureCase {
	var cs []fixtureCase
	for _, wl := range []string{"arrayswap", "rbt", "hashtable", "tpcc", "silo", "masstree"} {
		cs = append(cs, fixtureCase{mode: AstriFlash, wl: wl})
	}
	return cs
}

func openLoopCases() []fixtureCase {
	return []fixtureCase{{mode: AstriFlash, wl: "tatp", open: true}}
}

// fixtureCases lists every recorded case in file order.
func fixtureCases() []fixtureCase {
	cs := append(modeCases(), workloadCases()...)
	return append(cs, openLoopCases()...)
}

// fixtureEntry runs one case with a tracer attached and renders its
// outputs as three lines. %v prints floats in their shortest round-trip
// form and maps with sorted keys, so the text is exact.
func fixtureEntry(t *testing.T, fc fixtureCase) string {
	t.Helper()
	s, err := New(testConfig(fc.mode, fc.wl))
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	s.EnableTracing(tr)
	var r Result
	if fc.open {
		r = s.RunOpenLoop(2_000, 2_000_000, 6_000_000)
	} else {
		r = s.RunClosedLoop(48, 5_000_000, 10_000_000)
	}
	spans := tr.Spans()
	obs.SortSpans(spans)
	return fmt.Sprintf("case %s\nresult %+v\nspans %d fnv1a %016x\n", fc.name(), r, len(spans), spanHash(spans))
}

// spanHash is FNV-1a 64 over every field of every span, hashed in place
// (formatting millions of spans would dominate the test's run time).
func spanHash(spans []obs.Span) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= 1099511628211
			v >>= 8
		}
	}
	for i := range spans {
		sp := &spans[i]
		mix(uint64(sp.Point))
		mix(sp.Req)
		mix(sp.Fetch)
		mix(uint64(sp.Core))
		mix(uint64(sp.Stage))
		mix(sp.Page)
		mix(uint64(sp.Start))
		mix(uint64(sp.End))
	}
	return h
}

var (
	fixtureOnce sync.Once
	fixture     map[string]string
	fixtureErr  error
)

// readFixture returns the recorded entries keyed by case name, first
// rewriting the file from the current code when -update is set. The file
// is read (and written) once per test binary.
func readFixture(t *testing.T) map[string]string {
	t.Helper()
	fixtureOnce.Do(func() {
		// Left set if fixtureEntry stops the first caller mid-update.
		fixtureErr = fmt.Errorf("%s: update did not finish", fixtureFile)
		if *updateFixture {
			var b strings.Builder
			for _, fc := range fixtureCases() {
				b.WriteString(fixtureEntry(t, fc))
			}
			if fixtureErr = os.WriteFile(fixtureFile, []byte(b.String()), 0o644); fixtureErr != nil {
				return
			}
		}
		fixture, fixtureErr = parseFixture()
	})
	if fixtureErr != nil {
		t.Fatal(fixtureErr)
	}
	return fixture
}

func parseFixture() (map[string]string, error) {
	data, err := os.ReadFile(fixtureFile)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitAfter(string(data), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines)%3 != 0 {
		return nil, fmt.Errorf("%s: %d lines, want three per case", fixtureFile, len(lines))
	}
	want := make(map[string]string)
	for i := 0; i < len(lines); i += 3 {
		name := strings.TrimSuffix(strings.TrimPrefix(lines[i], "case "), "\n")
		want[name] = lines[i] + lines[i+1] + lines[i+2]
	}
	if len(want) != len(fixtureCases()) {
		return nil, fmt.Errorf("%s holds %d cases, want %d", fixtureFile, len(want), len(fixtureCases()))
	}
	return want, nil
}

// checkFixture runs cases as parallel subtests (each builds its own
// System) and fails on any difference from the recorded outputs.
// Regenerate after an intentional change to simulated behaviour with:
// go test ./internal/system -run TestFlatMatchesLegacy -update
func checkFixture(t *testing.T, cases []fixtureCase) {
	want := readFixture(t)
	for _, fc := range cases {
		w, ok := want[fc.name()]
		if !ok {
			t.Errorf("%s has no case %s", fixtureFile, fc.name())
			continue
		}
		t.Run(fc.name(), func(t *testing.T) {
			t.Parallel()
			if got := fixtureEntry(t, fc); got != w {
				t.Errorf("outputs differ from %s\ngot:\n%swant:\n%s", fixtureFile, got, w)
			}
		})
	}
}

// The three tests below hold the per-access path to the outputs recorded
// from the deleted one-event-per-stage ("legacy") chain.

// TestFlatMatchesLegacyAllModes checks every mode over tatp, closed loop.
func TestFlatMatchesLegacyAllModes(t *testing.T) {
	t.Parallel()
	checkFixture(t, modeCases())
}

// TestFlatMatchesLegacyWorkloads checks every other workload under
// AstriFlash, closed loop.
func TestFlatMatchesLegacyWorkloads(t *testing.T) {
	t.Parallel()
	checkFixture(t, workloadCases())
}

// TestFlatMatchesLegacyOpenLoop checks AstriFlash tatp under the open loop.
func TestFlatMatchesLegacyOpenLoop(t *testing.T) {
	t.Parallel()
	checkFixture(t, openLoopCases())
}
