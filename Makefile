# Standing quality gates for the ESSE reproduction. `make verify` runs
# scripts/verify.sh, the gate CI runs and the only definition of it; the
# other targets run single stages of it, or tools, for local use.

GO ?= go

.PHONY: build test golden race race-workflow bench-module bench-smoke test-fuzz lint lint-fixtures audit vet verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# golden rewrites every pinned output after a deliberate change:
# TestGolden's fixed-seed numbers and the testdata/stdout.golden of each
# main under cmd/ and examples/. `git diff` then lists what moved. Only
# those packages define -update, so `go test ./... -update` would fail.
golden:
	$(GO) test ./internal/experiments -run TestGolden -update
	$(GO) test ./cmd/... ./examples/... -update

# race runs the whole suite under the race detector — the dynamic half
# of the concurrency gate (esselint's lockheld and atomicmix are the
# static half; the -race seam tests of DESIGN.md §7 run here).
race:
	$(GO) test -race ./...

# race-workflow repeats the task pool's and the engine's tests under the
# race detector: their results must not depend on goroutine scheduling,
# and one lucky run proves nothing about that.
race-workflow:
	$(GO) test -race -count=20 ./internal/taskpool ./internal/workflow

# bench-module gates the end-to-end benchmark's own module (bench/ has
# its own go.mod, so ./... does not reach it).
bench-module:
	cd bench && test -z "$$(gofmt -l .)" && $(GO) vet ./... && $(GO) test -race ./...

# bench-smoke is one short traced svd-bound run of the end-to-end
# benchmark: its correctness checks (the Serial-oracle Sigma equality,
# Subspace.Check at paper scale) fail the run, so they gate every
# change and not only benchmark runs.
bench-smoke:
	bench/run.sh --workload svd-bound --seed 1 --seconds 1 --trace 1 >/dev/null

# test-fuzz runs each native fuzz target briefly — a smoke pass over
# the exposition parser and over the DES fileserver against its
# map-based reference, not a soak (leave FUZZTIME at the default in CI;
# raise it locally to hunt). go test fuzzes one target a call.
FUZZTIME ?= 10s
test-fuzz:
	$(GO) test -fuzz=FuzzParsePrometheus -fuzztime=$(FUZZTIME) ./internal/telemetry
	$(GO) test -fuzz=FuzzFileserverMatchesReference -fuzztime=$(FUZZTIME) ./internal/sched

vet:
	$(GO) vet ./...

# lint runs the stock vet passes, then the custom analyzers
# (`esselint -list` names them; each is kept on a real-tree mutant only
# it catches, DESIGN.md §7).
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/esselint ./...

# lint-fixtures runs the analyzer fixture tests and the mutation table
# (each rule against one-edit mutants of real tree code) — the inner
# loop when developing an analyzer. `make test` runs them too.
lint-fixtures:
	$(GO) test ./internal/lint -run 'Fixture|DirectivePlacement|RulesCatchRealMutants'

# audit lists every //esselint:allow[file] directive and fails if any
# is missing a reason or names an unknown analyzer.
audit:
	$(GO) run ./cmd/esselint -audit ./...

verify:
	./scripts/verify.sh
