#!/bin/sh
# bench.sh — the allocation-regression gate. Runs every benchmark once
# with -benchmem and feeds the stream to cmd/benchgate, which compares
# allocs/op against the committed BENCH_10.json baseline (15% relative
# tolerance plus a small absolute slack for GOMAXPROCS-dependent worker
# spawns; ns/op is recorded but never gated by default — wall time on
# shared runners is noise, allocation counts are not).
#
#   scripts/bench.sh              gate allocs against BENCH_10.json
#   scripts/bench.sh -update      rewrite BENCH_10.json from this run
#   scripts/bench.sh -time-gate   opt-in wall-time gate over the whole
#                                 suite: runs -count=3 so benchgate can
#                                 widen its tolerance to this machine's
#                                 own repetition spread
#   scripts/bench.sh -time-kernels wall-time gate over the curated
#                                 stable kernels only — the
#                                 compute-bound linalg, ocean and
#                                 acoustics benchmarks whose ns/op is
#                                 reproducible enough to gate in CI
#                                 (the full suite stays allocation-only;
#                                 see DESIGN §7)
set -eu

cd "$(dirname "$0")/.."

# The curated subset for -time-kernels: single-package, compute-bound,
# no scheduler or I/O in the timed loop, 0 allocs/op where the kernel
# owns its buffers. A kernel joins when a PR makes it faster (ROADMAP
# item 3): five from internal/linalg, Step32x32 from internal/ocean,
# ComputeTL from internal/acoustics.
stable_kernels='^(MulSmall|MulLargeParallel|QR64|SVDEnsembleShape|SymEig32|Step32x32|ComputeTL)$'

mode="${1:-}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

count=1
bench_pkgs=./...
case "$mode" in
-time-gate)
    count=3
    ;;
-time-kernels)
    count=3
    bench_pkgs="./internal/linalg/ ./internal/ocean/ ./internal/acoustics/"
    ;;
esac

echo "==> go test -bench=. -benchtime=1x -benchmem -count=$count $bench_pkgs"
# shellcheck disable=SC2086 # bench_pkgs is a word list on purpose
go test -run='^$' -bench=. -benchtime=1x -benchmem -count="$count" $bench_pkgs | tee "$tmp"

case "$mode" in
-update)
    go run ./cmd/benchgate -baseline BENCH_10.json -update <"$tmp"
    ;;
-time-gate)
    go run ./cmd/benchgate -baseline BENCH_10.json -out bench-observed.json -time-gate <"$tmp"
    ;;
-time-kernels)
    go run ./cmd/benchgate -baseline BENCH_10.json -out bench-time-kernels.json \
        -time-gate -match "$stable_kernels" <"$tmp"
    ;;
*)
    go run ./cmd/benchgate -baseline BENCH_10.json -out bench-observed.json <"$tmp"
    ;;
esac
