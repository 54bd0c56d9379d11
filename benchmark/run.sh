#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark and runs it
# with the arguments given. Everything Go writes (build cache, temporary
# files, the two binaries, the servers' data directories) stays under
# .bench_build in the checkout.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
mkdir -p .bench_build/tmp
export GOCACHE="$PWD/.bench_build/gocache"
export GOTMPDIR="$PWD/.bench_build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
go build -C benchmark -o ../.bench_build/xfrag-benchmark .
exec .bench_build/xfrag-benchmark "$@"
