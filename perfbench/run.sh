#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# on (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload table1-lr --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
