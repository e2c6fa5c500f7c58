#!/bin/sh
# verify.sh — the repository's standing gate: build, the arm64 vet and
# 386 build and vet (the portable build, without the amd64 assembly; the
# 386 vet type-checks the tests too), the 386
# tests of the whole suite (the Go loops as the only bodies), vet, the custom
# esselint analyzers (`esselint -list`) over the whole tree, the linter's
# own packages among it, the suppression audit, and the race-enabled
# test suite, which includes the mutation table the analyzers are kept
# on (internal/lint, TestRulesCatchRealMutants), the seam tests that
# hold what no rule does (DESIGN.md §7), the gate on functions no binary
# links (TestUnlinkedFunctions) and the entry-point goldens:
# internal/experiments' TestGolden and the testdata/stdout.golden of
# each of the nine mains under cmd/ and examples/ (`make golden`
# rewrites them all). CI runs exactly this; run it locally before
# sending a change.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> GOARCH=arm64 go vet ./..., GOARCH=386 go build ./... and GOARCH=386 go vet ./... (the portable build, without the amd64 assembly; the 386 vet type-checks the tests too)"
GOARCH=arm64 go vet ./...
GOARCH=386 go build ./...
GOARCH=386 go vet ./...

echo "==> GOARCH=386 go test ./... (the Go loops run as the only bodies, not just built; the goldens skip off amd64)"
GOARCH=386 go test ./...

echo "==> go vet ./..."
go vet ./...

echo "==> esselint -stats ./... (the analyzers of esselint -list)"
go run ./cmd/esselint -stats ./...

echo "==> esselint -audit ./... (every suppression must carry a reason)"
go run ./cmd/esselint -audit ./... >/dev/null

echo "==> go test -race ./... (the entry-point goldens and the unlinked-function gate among them)"
go test -race ./...

echo "==> go test -race -count=20 ./internal/taskpool ./internal/workflow (a scheduling dependence must not hide behind a lucky run)"
go test -race -count=20 ./internal/taskpool ./internal/workflow

echo "==> bench module: gofmt, vet, race tests (its own go.mod, so ./... above does not reach it)"
(cd bench && test -z "$(gofmt -l .)" && go vet ./... && go test -race ./...)

echo "==> bench smoke: one traced svd-bound run at paper scale (Serial-oracle Sigma equality, Subspace.Check)"
bench/run.sh --workload svd-bound --seed 1 --seconds 1 --trace 1 >/dev/null

echo "verify: all gates passed"
