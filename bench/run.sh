#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json): build the benchmark and
# the daemon from this checkout and run it, keeping every byte written
# inside the checkout — binaries, Go's build cache and temp files all
# live under .bench_build/. Arguments are passed through:
#
#   bash bench/run.sh --workload wire_batch --seed 1 --seconds 20 --trace 0
#
# Run from the root of the repository. In a directory that holds only
# the benchmark's own files there is nothing to measure, and the script
# says so and exits non-zero without printing a result.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/ubacd ] || [ ! -d internal ]; then
	echo "bench/run.sh: run from the root of the ubac repository (go.mod, cmd/ubacd and internal/ must be here)" >&2
	exit 2
fi

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOFLAGS=-mod=mod GOTOOLCHAIN=local

go build -o "$build/bench" ./bench
exec "$build/bench" "$@"
