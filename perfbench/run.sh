#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments, e.g.
#
#   bash perfbench/run.sh --workload serve-jobs --seed 1 --seconds 30 --trace 0
#
# Run from the root of the checkout. Everything the build and the runs
# write stays under .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build="$root/.bench_build/perfbench"
mkdir -p "$build/tmp" "$build/config"

# Keep the Go toolchain offline and inside the checkout.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOFLAGS=-mod=mod GOPROXY=off GOSUMDB=off
export GOTOOLCHAIN=local GOWORK=off GOTELEMETRY=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/out" "$@"
