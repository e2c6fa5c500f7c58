#!/usr/bin/env bash
# Builds the benchmark once into bench/out/ and runs it from the root of
# the checkout; every argument goes to the program (see README.md). With
# no arguments it runs every workload, timed and then traced.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/bench/out/build"
mkdir -p "$build"
# Keep the toolchain off the network and everything it writes (build
# cache, module cache, its own usage counters) inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd bench && go build -o "$build/esse-bench" .)
BENCH_COMMIT=${BENCH_COMMIT:-$(git rev-parse --short HEAD 2>/dev/null || echo unknown)}
export BENCH_COMMIT
exec "$build/esse-bench" "$@"
