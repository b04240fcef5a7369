#!/bin/sh
# verify.sh — the repository's full verification gate, in escalating
# cost order: compile, vet, the whole test suite, the race-detector
# pass over the sharded/recovery/scheduling paths (tier-1.5), and the
# project static-analysis suite (mdlint). Any failure fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> go test ./..."
go test ./...

echo "==> go test -race (tier-1.5: md, parallel, faults, fsys, guard, fleet, mdrun, serve, chaos)"
go test -race -short ./internal/md/... ./internal/parallel/... \
    ./internal/faults/... ./internal/fsys/... ./internal/guard/... \
    ./internal/fleet/... ./internal/mdrun/... ./internal/serve/... \
    ./internal/chaos/...

echo "==> go test -bench=MixedPrecision -benchtime=1x (mixed-precision smoke)"
go test -run='^$' -bench=MixedPrecision -benchtime=1x .

echo "==> mdserve crash-recovery smoke (submit, kill -9, restart, resume, compare)"
go test -count=1 -run 'TestMDServeKillRestart' ./cmd/mdserve/

echo "==> mdchaos fixed-seed smoke campaign (12 schedules, all invariants)"
go test -count=1 -run 'TestChaosSmoke' ./internal/chaos/

# This run's bench records go to a scratch file and are compared with
# the committed baseline, so verifying never rewrites a tracked file.
BASELINE=BENCH_PR10.json
TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
BENCH="$TMP/bench.json"

echo "==> build mdlint once (gates below reuse the binary)"
MDLINT="$TMP/mdlint"
go build -o "$MDLINT" ./cmd/mdlint

echo "==> mdlint ./... (lint/certification stats into this run's bench record)"
"$MDLINT" -bench-json "$BENCH" ./...

echo "==> go test -bench=StepAllocs -benchmem (zero-alloc steady-state stepping gate)"
STEPALLOCS_OUT="$(BENCH_JSON="$BENCH" go test -run='^$' -bench=StepAllocs -benchmem -benchtime=50x .)"
printf '%s\n' "$STEPALLOCS_OUT"
if printf '%s\n' "$STEPALLOCS_OUT" | grep -E ' [1-9][0-9]* allocs/op' >/dev/null; then
    echo "verify: BenchmarkStepAllocs reported a nonzero allocs/op — steady-state stepping must not allocate" >&2
    exit 1
fi

echo "==> mdlint -certify ./... (determinism certificate vs committed golden)"
"$MDLINT" -certify ./... > "$TMP/cert.json"
if ! diff -u DETERMINISM_CERT.json "$TMP/cert.json"; then
    echo "verify: determinism certificate drifted from DETERMINISM_CERT.json" >&2
    echo "verify: regenerate with: go run ./cmd/mdlint -certify ./... > DETERMINISM_CERT.json" >&2
    exit 1
fi

echo "==> hotalloc ledger <= 10 sites (PR-10 SoA arena contract)"
SITES="$(sed -n 's/.*"count": *\([0-9][0-9]*\).*/\1/p' DETERMINISM_CERT.json | head -n 1)"
echo "hotalloc ledger: ${SITES:-?} sites"
if [ -z "$SITES" ] || [ "$SITES" -gt 10 ]; then
    echo "verify: hotalloc ledger has ${SITES:-unknown} sites, budget is 10" >&2
    exit 1
fi

echo "==> bench trajectory: $BASELINE -> this run"
scripts/bench_diff.sh "$BASELINE" "$BENCH"

echo "verify: all gates passed"
