#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it.
# BENCHMARK.json's command; run from the root of a checkout:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays inside the checkout:
# the binary, Go's build cache and its temporary files under
# .bench_build/, WAL directories and trace files under benchmark/out/.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" # the go command keeps its counters there
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd benchmark && go build -o "$build/benchmark" .)
exec "$build/benchmark" "$@"
