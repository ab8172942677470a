# AstriFlash reproduction — build and verify tiers.
#
# Tier 1 (`make verify`) is the gate every change must keep green.
# Tier 2 (`make verify-race`) adds vet and the race detector; the sweep
# runner fans simulation points across goroutines, so the suite must stay
# race-clean even though each simulated machine is single-threaded.

GO ?= go

.PHONY: build test verify vet race verify-race lint-docs fmt-check fuzz-smoke fullscale-probe bench-harness bench bench-engine bench-build figures figures-smoke trace-smoke timeline-smoke overload-smoke economics-smoke examples-smoke sim-smoke loc

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

## Code size: non-test Go lines outside benchmark/ (and outside dot
## directories such as build caches), the figure the simplification work
## is measured by.
loc:
	@echo "non-test Go lines outside benchmark/: $$(find . \( -path ./benchmark -o -name '.?*' \) -prune -o -name '*.go' ! -name '*_test.go' -print | xargs cat | wc -l)"

## Formatting gate: fails listing every file gofmt would rewrite.
fmt-check:
	@files=$$(gofmt -l .); if [ -n "$$files" ]; then echo "gofmt needed:"; echo "$$files"; exit 1; fi

## Fuzz smoke: each native fuzzer runs FUZZTIME (default 10s) past its
## seed corpus (plain `go test` runs only the seeds): the B+tree, the
## red-black tree, the hash table, Masstree, Silo's transactions and the
## FTL against reference models,
## the event engine against an (at, seq) firing-order reference and a
## clock that never goes back, the timeline CSV reader against its writer,
## the SLO parser against the objectives it may return, the span-trace
## reader against malformed input, the Zipf rank scramble against its
## reference reduction, the Zipf rank against its math.Pow form, the
## DRAM cache's miss status row against a map model and its buffered
## recency refreshes against one event per refresh. A failure writes the
## input under the package's testdata/fuzz/. Each fuzzer minimizes a new interesting input for
## 2 s: at the default 60 s, FuzzBPTree, FuzzRBTree and FuzzFTL spent
## the whole run minimizing their first find (tens of execs in 10 s).
FUZZTIME ?= 10s
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzBPTree$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzRBTree$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzHashTable$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzMasstree$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzSilo$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/workload
	$(GO) test -run '^$$' -fuzz '^FuzzFTL$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/flash
	$(GO) test -run '^$$' -fuzz '^FuzzEngineOrder$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzReadCSV$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/obs/timeline
	$(GO) test -run '^$$' -fuzz '^FuzzParseSLO$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/obs/timeline
	$(GO) test -run '^$$' -fuzz '^FuzzReadTrace$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/obs
	$(GO) test -run '^$$' -fuzz '^FuzzZipfScramble$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzZipfRank$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/mem
	$(GO) test -run '^$$' -fuzz '^FuzzMSR$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/dramcache
	$(GO) test -run '^$$' -fuzz '^FuzzTouchLanes$$' -fuzztime $(FUZZTIME) -fuzzminimizetime 2s ./internal/dramcache

## Full-scale probe: builds and runs the 16-core tatp machine at 2 GB and
## 16 GB (about 5 s and 0.2 GiB of host heap on 2 vCPUs), logs build and
## run time and build seconds per simulated GiB, and fails a point holding
## more than 7.5 MiB of live host heap per simulated GiB.
fullscale-probe:
	FULLSCALE=1 $(GO) test -count=1 -run '^TestFullScaleProbe$$' -v .

## The benchmark harness is its own module (benchmark/go.mod), so root
## `go test ./...` skips it; this vets and tests it against the current
## public API.
bench-harness:
	$(GO) -C benchmark vet ./...
	$(GO) -C benchmark test ./...

## Engine, stats and Zipf-draw microbenchmarks (allocation counts
## included), and the per-access path's layer number: ns, allocations and
## engine events per completed job on a saturated 4-core tatp machine,
## DRAM-only and AstriFlash (BenchmarkSystemJob). BENCHFLAGS passes extra
## go test flags (CI runs `make bench-engine BENCHFLAGS='-benchtime 1x'`).
bench-engine:
	$(GO) test -run '^$$' -bench 'BenchmarkEngine|BenchmarkHistogram|BenchmarkZipfNext|BenchmarkHotColdNext|BenchmarkSystemJob' -benchmem $(BENCHFLAGS) ./internal/sim ./internal/stats ./internal/mem ./internal/system

## Workload construction microbenchmarks: ns/op and allocs/op of building
## each registered workload at 32 MiB and tatp at 512 MiB (the
## benchmark's tatp-512m dataset), ns per key of a 1M-key
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

## Every experiment's default point list (199 simulation points) on a
## small machine, about 8 s on 2 vCPUs: the tier-1 tests run only
## reduced point lists.
figures-smoke:
	$(GO) run ./cmd/astribench -cores 4 -dataset 16 -measure 3

## Short traced run + per-stage latency breakdown (CI uploads the output).
trace-smoke:
	$(GO) run ./cmd/astribench -trace trace-smoke.json -cores 4 -dataset 16 -measure 3
	$(GO) run ./cmd/astritrace analyze -in trace-smoke.json | tee stage-breakdown.txt

## Short sampled run: per-window timeline + SLO burn-rate verdicts
## (CI uploads the CSV; the re-render checks the wire format end to end).
timeline-smoke:
	$(GO) run ./cmd/astribench -timeline timeline-smoke.csv -cores 4 -dataset 16 -measure 5 | tee timeline-report.txt
	$(GO) run ./cmd/astritrace timeline -in timeline-smoke.csv

## Single runs of astrisim on a small machine: closed loop, open loop
## (-rate, past the 4-core tatp knee of about 0.8M jobs/s) under every
## arrival shape with every admission controller, and one traced and
## sampled open-loop run. Any non-zero exit fails the target.
SIM := $(GO) run ./cmd/astrisim -cores 4 -dataset 16 -warmup 2 -measure 4
sim-smoke:
	$(SIM)
	@set -e; for a in poisson mmpp diurnal flashcrowd; do for c in none static codel; do \
		echo "== -rate 1000000 -arrivals $$a -admit $$c"; $(SIM) -rate 1000000 -arrivals $$a -admit $$c; \
	done; done
	$(SIM) -rate 600000 -trace sim-smoke.json -timeline sim-smoke.csv

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
