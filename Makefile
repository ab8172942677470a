# AstriFlash reproduction — build and verify tiers.
#
# Tier 1 (`make verify`) is the gate every change must keep green.
# Tier 2 (`make verify-race`) adds vet and the race detector; the sweep
# runner fans simulation points across goroutines, so the suite must stay
# race-clean even though each simulated machine is single-threaded.

GO ?= go

.PHONY: build test verify vet race verify-race lint-docs bench-harness bench bench-engine bench-json bench-diff figures trace-smoke timeline-smoke overload-smoke economics-smoke

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

## The benchmark harness is its own module (benchmark/go.mod), so root
## `go test ./...` skips it; this vets and tests it against the current
## public API.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

## Engine/stats microbenchmarks (allocation counts included).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkHistogram' -benchmem ./internal/sim ./internal/stats

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

## Self-profiling suite: events/sec, allocs, wall time per experiment,
## written to the dated BENCH_<date>.json the repo commits as its
## performance trajectory.
bench-json:
	$(GO) run ./cmd/astribench -benchjson BENCH_$$(date +%F).json

## Regenerate the suite into an untracked file and diff it against the
## newest committed baseline; fails on a >15% events/sec regression in any
## saturated experiment (the CI perf gate).
bench-diff:
	$(GO) run ./cmd/astribench -benchjson bench-current.json
	$(GO) run ./tools/benchdiff -fail-regression 15 $$(ls BENCH_*.json | sort | tail -1) bench-current.json
