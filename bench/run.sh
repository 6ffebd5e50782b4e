#!/usr/bin/env bash
# Builds the benchmark from source and runs it; this is the command
# BENCHMARK.json names. Everything the Go toolchain writes (build cache,
# module cache, its own telemetry counters, the binary) goes under
# .bench_build at the root of the checkout, so a run touches nothing
# outside it.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOENV=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false

go build -C "$here" -o "$build/domino-bench" .
exec "$build/domino-bench" "$@"
