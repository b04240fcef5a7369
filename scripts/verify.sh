#!/bin/sh
# verify.sh — the repository's full verification gate, in escalating
# cost order: compile, vet, gofmt, the whole test suite, the benchmark
# module's vet and self-tests, the race-detector pass over the
# sharded/recovery/scheduling paths (tier-1.5), and the project
# static-analysis suite (mdlint). Any failure fails the gate.
set -eu

cd "$(dirname "$0")/.."

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> gofmt -l . (every Go file gofmt-clean)"
UNFORMATTED="$(gofmt -l .)"
if [ -n "$UNFORMATTED" ]; then
    printf '%s\n' "$UNFORMATTED" >&2
    echo "verify: the files above are not gofmt-formatted; run gofmt -w on them" >&2
    exit 1
fi

echo "==> go test ./..."
go test ./...

echo "==> perfbench: go vet + self-tests (offline, as perfbench/run.sh builds it)"
# The benchmark is its own module compiled against this one, so an API
# change that breaks its build fails here rather than in a benchmark run.
(cd perfbench && export GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off \
    GOTOOLCHAIN=local GOWORK=off && go vet ./... && go test ./...)

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

echo "==> inlining gate (the shared pair body and scalar min image inline into every host pair kernel)"
# The kernels are generic, so the compiler instantiates them in the
# packages that use them; mdrun instantiates every one. A kernel whose
# call to LJTerms.Pair or MinImageAxis is not inlined pays a function
# call on every candidate pair, and its output bits stay the same, so
# only this report shows it.
INLINE="$TMP/inline.txt"
go build -gcflags=-m ./internal/md ./internal/parallel ./internal/mdrun 2> "$INLINE"
# inlined <file>:<func> <callee>: every line of <func> that calls
# <callee> (MinImageAxis or LJTerms.Pair) has an "inlining call to"
# report, and there is at least one such line.
inlined() {
    awk -v file="${1%%:*}" -v fn="${1#*:}" -v callee="$2" '
        BEGIN {
            call = "MinImageAxis[(]"; report = "MinImageAxis[[]"
            if (callee == "LJTerms.Pair") { call = "[.]Pair[(]"; report = "LJTerms[[][^]]*[]][.]Pair" }
        }
        FNR == NR {
            if (!start && $0 ~ ("^func ([(][^)]*[)] )?" fn "[[(]")) start = FNR
            if (start && !end && /^}/) end = FNR
            if (start && !end && $0 ~ call) want[FNR] = 1
            next
        }
        index($0, file ":") == 1 && $0 ~ ("inlining call to (md[.])?" report) {
            split($0, at, ":")
            got[at[2]] = 1
        }
        END {
            for (l in want) {
                calls++
                if (!(l in got)) {
                    printf "verify: %s:%d: %s is not inlined into %s\n", file, l, callee, fn > "/dev/stderr"
                    bad = 1
                }
            }
            if (!calls) {
                printf "verify: %s in %s does not call %s\n", fn, file, callee > "/dev/stderr"
                bad = 1
            }
            exit bad
        }' "${1%%:*}" "$INLINE"
}
for kernel in \
    internal/md/forces.go:ComputeForces \
    internal/md/forces.go:ForcesFullRows \
    internal/md/pairlist.go:ForcesPairRange \
    internal/md/celllist.go:cellForces \
    internal/parallel/parallel.go:TryForcesCell \
    internal/parallel/mixed.go:TryForcesPairlistF32; do
    inlined "$kernel" MinImageAxis
    inlined "$kernel" LJTerms.Pair
done
for kernel in \
    internal/md/forces.go:MinImage \
    internal/md/pairlist.go:BuildRow \
    internal/md/pairlist.go:Stale; do
    inlined "$kernel" MinImageAxis
done

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
