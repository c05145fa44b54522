#!/usr/bin/env bash
# Builds the benchmark from the source of this checkout and runs it with
# every argument passed through (see benchmark/README.md), for example:
#
#   bash benchmark/run.sh -workload detect-fastfair -seed 42 -seconds 15 -trace 0
#
# The build cache, temporary files and the binary stay under .bench_build/
# at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/benchmark" build -o "$build/hawkset-bench" .
exec "$build/hawkset-bench" "$@"
