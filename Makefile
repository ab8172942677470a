# AstriFlash reproduction — build and verify tiers.
#
# Tier 1 (`make verify`) is the gate every change must keep green.
# Tier 2 (`make verify-race`) adds vet and the race detector; the sweep
# runner fans simulation points across goroutines, so the suite must stay
# race-clean even though each simulated machine is single-threaded.

GO ?= go

.PHONY: build test verify vet race verify-race lint-docs fmt-check fuzz-smoke bench-harness bench bench-engine bench-build figures trace-smoke timeline-smoke overload-smoke economics-smoke examples-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

## Tier-1 verify: what CI and every PR must pass.
verify: build test

vet:
	$(GO) vet ./...

race:
	$(GO) test -race -timeout 20m ./...

## Tier-2 verify: vet + race detector over the whole tree.
verify-race: vet race

## Documentation lint: every package must carry a package doc comment.
lint-docs:
	$(GO) run ./tools/lintdocs

## Formatting gate: fails listing every file gofmt would rewrite.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

## Fuzz smoke: each native fuzzer runs FUZZTIME (default 10s) past its
## seed corpus (plain `go test` runs only the seeds): the B+tree, the
## red-black tree, the hash table and the FTL against reference models,
## the event engine against an (at, seq) firing-order reference and a
## clock that never goes back, the timeline CSV reader against its writer,
## the SLO parser against the objectives it may return and the span-trace
## reader against malformed input. A failure writes the input under the
## package's testdata/fuzz/.
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBPTree$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzRBTree$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzHashTable$$' -fuzztime $(FUZZTIME) ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzFTL$$' -fuzztime $(FUZZTIME) ./internal/flash
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) ./internal/obs/timeline
	$(GO) test -run '^$$' -fuzz '^FuzzParseSLO$$' -fuzztime $(FUZZTIME) ./internal/obs/timeline
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) ./internal/obs

## The benchmark harness is its own module (benchmark/go.mod), so root
## `go test ./...` skips it; this vets and tests it against the current
## public API.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

## Engine, stats and Zipf-draw microbenchmarks (allocation counts
## included). BENCHFLAGS passes extra go test flags (CI runs
## `make bench-engine BENCHFLAGS='-benchtime 1x'`).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkHistogram|BenchmarkZipfNext|BenchmarkHotColdNext' -benchmem $(BENCHFLAGS) ./internal/sim ./internal/stats ./internal/mem

## Workload construction microbenchmarks: ns/op and allocs/op of building
## each registered workload at 32 MiB and ns per key of a 1M-key
## ascending B+tree load, plus ns per untraced random Get over such a
## tree (hits and misses). BENCHFLAGS passes extra go test flags (CI runs
## `make bench-build BENCHFLAGS='-benchtime 1x'`).
bench-build:
	$(GO) test -run '^$$' -bench 'BenchmarkWorkloadBuild|BenchmarkBPTreeAscendingLoad|BenchmarkBPTreeGet' -benchmem $(BENCHFLAGS) ./internal/workload

## The full figure-suite benchmark harness.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x .

## Regenerate every paper figure/table via cmd/astribench.
figures:
	$(GO) run ./cmd/astribench

## Short traced run + per-stage latency breakdown (CI uploads the output).
trace-smoke:
	$(GO) run ./cmd/astribench -trace trace-smoke.json -cores 4 -dataset 16 -measure 3
	$(GO) run ./cmd/astritrace analyze -in trace-smoke.json | tee stage-breakdown.txt

## Short sampled run: per-window timeline + SLO burn-rate verdicts
## (CI uploads the CSV; the re-render checks the wire format end to end).
timeline-smoke:
	$(GO) run ./cmd/astribench -timeline timeline-smoke.csv -cores 4 -dataset 16 -measure 5 | tee timeline-report.txt
	$(GO) run ./cmd/astritrace timeline -in timeline-smoke.csv

## Short open-loop overload sweep: hockey-stick + goodput curves per
## admission controller, with -slo-strict so the adaptive controller
## letting p99 escape its threshold fails the build (CI uploads the
## report).
overload-smoke:
	$(GO) run ./cmd/astribench -exp overload -cores 4 -dataset 16 -measure 8 -plot -slo-strict | tee overload-report.txt

## Short write-economics sweep: $/op grid over device classes, DRAM:flash
## ratios, and admission policies, with break-even and Five-Minute-Rule
## lines (CI uploads the report). The short window understates write
## amplification; `make figures` runs the full-size grid.
economics-smoke:
	$(GO) run ./cmd/astribench -exp economics -cores 4 -dataset 16 -measure 8 | tee economics-report.txt

## Runs every program under examples/ (about 12 s in total on 2 vCPUs);
## any non-zero exit fails the target. The examples are the runnable
## consumers of the public API besides the benchmark harness.
EXAMPLES := $(sort $(dir $(wildcard examples/*/main.go)))
examples-smoke:
	@set -e; for d in $(EXAMPLES); do echo "== $$d"; $(GO) run ./$$d; done
