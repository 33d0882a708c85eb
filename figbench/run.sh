#!/usr/bin/env bash
# Builds cmd/repro and figbench from this checkout, then runs figbench
# with the given arguments. Run from anywhere; for example
#
#   bash figbench/run.sh --workload analytic --seed 1996 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and per-run outputs stay under
# .bench_build/ at the root of the checkout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOPROXY=off GOWORK=off GOTOOLCHAIN=local GOFLAGS=
(cd "$root" && go build -o "$out/repro" ./cmd/repro)
(cd "$root/figbench" && go build -o "$out/figbench" .)
exec "$out/figbench" -root "$root" -repro "$out/repro" "$@"
