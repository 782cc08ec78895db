#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping
# everything it writes inside the checkout: the Go build cache and the
# binary under .bench_build/, traces and scratch data under
# benchmark/out/. BENCHMARK.json names this script as its command; by
# hand, `go run ./benchmark` does the same with your own build cache.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOTOOLCHAIN=local

go build -o "$build/logstore-benchmark" ./benchmark
exec "$build/logstore-benchmark" "$@"
