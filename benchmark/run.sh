#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags, e.g.
#
#   bash benchmark/run.sh --workload tatp-dram --seed 7 --seconds 25 --trace 0
#
# Run it from the repository root. The build cache, temporary files, the
# binary, the JSON report and the profiles all stay under .bench_build in
# the current directory.
set -euo pipefail

work="$PWD/.bench_build"
mkdir -p "$work/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters here too.
export GOCACHE="$work/gocache" GOMODCACHE="$work/gomodcache" GOTMPDIR="$work/tmp" \
	TMPDIR="$work/tmp" PPROF_TMPDIR="$work/tmp" XDG_CONFIG_HOME="$work/config" \
	GOWORK=off GOTOOLCHAIN=local GOFLAGS=

go -C "$(dirname "$0")" build -o "$work/perfbench" .
exec "$work/perfbench" -workdir "$work" "$@"
