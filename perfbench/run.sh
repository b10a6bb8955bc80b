#!/usr/bin/env bash
# Builds the benchmark from source and runs it; run from the repository
# root:  bash perfbench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
# Build output, the Go build cache and trace files stay in .bench_build/.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS=-mod=mod GOWORK=off GOPROXY=off
(cd "$(dirname "$0")" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
