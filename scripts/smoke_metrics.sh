#!/bin/sh
# smoke_metrics.sh — the telemetry smoke gate: run a short mtc-sim with
# the telemetry server enabled, scrape /metrics while the run holds the
# server open, and strictly parse the exposition with cmd/promscrape
# (which exits non-zero on any malformed line or missing family). CI
# runs this so the /metrics surface can never silently rot into
# something a Prometheus scraper rejects.
#
#   scripts/smoke_metrics.sh            default address 127.0.0.1:19309
#   SMOKE_ADDR=:9999 scripts/smoke_metrics.sh
set -eu

cd "$(dirname "$0")/.."

addr="${SMOKE_ADDR:-127.0.0.1:19309}"

echo "==> mtc-sim smoke run with -telemetry-addr $addr (race detector on)"
# -race covers the interleavings this boot executes: the telemetry
# server of a live mtc-sim answering the scrapes below while the
# simulation updates the metrics, events and spans they read.
go run -race ./cmd/mtc-sim -jobs 50 -cores 20 -telemetry-addr "$addr" -telemetry-hold 30s &
sim=$!
trap 'kill "$sim" 2>/dev/null || true; wait "$sim" 2>/dev/null || true' EXIT

echo "==> promscrape http://$addr/metrics"
go run ./cmd/promscrape \
    -url "http://$addr/metrics" \
    -retries 40 -wait 500ms \
    -require mtc_sim_makespan_seconds,mtc_sim_jobs,mtc_sim_pert_cpu_utilization,go_goroutines,go_heap_objects_bytes

echo "==> /events and /trace respond"
go run ./cmd/promscrape -url "http://$addr/events" -parse=false
go run ./cmd/promscrape -url "http://$addr/trace" -parse=false

# The forensics gate: esse-report fetches the live /trace, /events and
# /metrics surfaces and rebuilds the span tree. -strict fails the smoke
# on an empty tree or any orphan span — a span whose parent never made
# it into the export means broken causal propagation, not just an ugly
# trace. The digest is kept as a CI artifact (mtc-sim-digest.json) so a
# red run can be triaged without rebooting the sim.
echo "==> esse-report forensics over http://$addr"
go run ./cmd/esse-report \
    -trace "http://$addr/trace" \
    -events "http://$addr/events" \
    -metrics "http://$addr/metrics" \
    -strict -out mtc-sim-digest.json

echo "smoke_metrics: metrics endpoint is scrapeable and trace is coherent"
