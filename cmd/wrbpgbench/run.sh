#!/usr/bin/env bash
# Builds wrbpgbench from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash cmd/wrbpgbench/run.sh --workload hot-cache --seed 1 --seconds 15 --trace 0
#
# Build outputs (the binary and the Go build cache) go under
# $CARGO_TARGET_DIR, default .bench_build, so a run writes nothing
# outside the checkout.
set -euo pipefail
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$(dirname "$0")" && go build -o "$out/wrbpgbench" .)
exec "$out/wrbpgbench" "$@"
