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

var updateFixture = flag.Bool("update", false, "rewrite the output fixtures of the tests that run from the current code")

// A fixture freezes the per-access path's observable outputs over 14
// configurations: the full Result, the span count and a hash of the
// canonically sorted span stream. Each file is read (and, with -update,
// written) once per test binary.
type fixture struct {
	file  string
	cores int     // Config.Cores of every case
	gapNs float64 // mean arrival gap of the open-loop case

	once    sync.Once
	entries map[string]string
	err     error
}

var (
	// legacyFixture runs the 4-core machine. Same-instant events on
	// different cores fire in push order, so a change to when the
	// per-access path pushes its events may move it (flat.go rule 2).
	legacyFixture = &fixture{file: "testdata/outputs.txt", cores: 4, gapNs: 2_000}
	// oneCoreFixture runs the same cases on one core, where no two cores'
	// events can tie: it pins the per-access path to the outputs the
	// one-event-per-stage chain produced, however events are pushed.
	oneCoreFixture = &fixture{file: "testdata/outputs.onecore.txt", cores: 1, gapNs: 8_000}
)

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

// entry runs one case with a tracer attached and renders its outputs as
// three lines. %v prints floats in their shortest round-trip form and maps
// with sorted keys, so the text is exact.
func (fx *fixture) entry(t *testing.T, fc fixtureCase) string {
	t.Helper()
	cfg := testConfig(fc.mode, fc.wl)
	cfg.Cores = fx.cores
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer()
	s.EnableTracing(tr)
	var r Result
	if fc.open {
		r = runPoisson(t, s, fx.gapNs, 2_000_000, 6_000_000)
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

// read returns the recorded entries keyed by case name, first rewriting
// the file from the current code when -update is set.
func (fx *fixture) read(t *testing.T) map[string]string {
	t.Helper()
	fx.once.Do(func() {
		// Left set if entry stops the first caller mid-update.
		fx.err = fmt.Errorf("%s: update did not finish", fx.file)
		if *updateFixture {
			var b strings.Builder
			for _, fc := range fixtureCases() {
				b.WriteString(fx.entry(t, fc))
			}
			if fx.err = os.WriteFile(fx.file, []byte(b.String()), 0o644); fx.err != nil {
				return
			}
		}
		fx.entries, fx.err = fx.parse()
	})
	if fx.err != nil {
		t.Fatal(fx.err)
	}
	return fx.entries
}

func (fx *fixture) parse() (map[string]string, error) {
	data, err := os.ReadFile(fx.file)
	if err != nil {
		return nil, err
	}
	lines := strings.SplitAfter(string(data), "\n")
	if lines[len(lines)-1] == "" {
		lines = lines[:len(lines)-1]
	}
	if len(lines)%3 != 0 {
		return nil, fmt.Errorf("%s: %d lines, want three per case", fx.file, len(lines))
	}
	want := make(map[string]string)
	for i := 0; i < len(lines); i += 3 {
		name := strings.TrimSuffix(strings.TrimPrefix(lines[i], "case "), "\n")
		want[name] = lines[i] + lines[i+1] + lines[i+2]
	}
	if len(want) != len(fixtureCases()) {
		return nil, fmt.Errorf("%s holds %d cases, want %d", fx.file, len(want), len(fixtureCases()))
	}
	return want, nil
}

// check runs cases as parallel subtests (each builds its own System) and
// fails on any difference from the recorded outputs. Regenerate the
// 4-core file after an intentional change to simulated behaviour with:
// go test ./internal/system -run TestFlatMatchesLegacy -update
func (fx *fixture) check(t *testing.T, cases []fixtureCase) {
	want := fx.read(t)
	for _, fc := range cases {
		w, ok := want[fc.name()]
		if !ok {
			t.Errorf("%s has no case %s", fx.file, fc.name())
			continue
		}
		t.Run(fc.name(), func(t *testing.T) {
			t.Parallel()
			if got := fx.entry(t, fc); got != w {
				t.Errorf("outputs differ from %s\ngot:\n%swant:\n%s", fx.file, got, w)
			}
		})
	}
}

// The three tests below hold the per-access path to testdata/outputs.txt,
// first recorded from the deleted one-event-per-stage ("legacy") chain and
// re-recorded once, when the per-access loop changed the order of
// same-instant events on different cores.

// TestFlatMatchesLegacyAllModes checks every mode over tatp, closed loop.
func TestFlatMatchesLegacyAllModes(t *testing.T) {
	t.Parallel()
	legacyFixture.check(t, modeCases())
}

// TestFlatMatchesLegacyWorkloads checks every other workload under
// AstriFlash, closed loop.
func TestFlatMatchesLegacyWorkloads(t *testing.T) {
	t.Parallel()
	legacyFixture.check(t, workloadCases())
}

// TestFlatMatchesLegacyOpenLoop checks AstriFlash tatp under the open loop.
func TestFlatMatchesLegacyOpenLoop(t *testing.T) {
	t.Parallel()
	legacyFixture.check(t, openLoopCases())
}

// TestOneCoreMatchesParent runs every case on one core. The 4-core
// fixture above may move when same-instant events on different cores are
// reordered; this one may not, since one core's events never tie with
// another's. A change to simulated behaviour fails it.
func TestOneCoreMatchesParent(t *testing.T) {
	t.Parallel()
	oneCoreFixture.check(t, fixtureCases())
}
