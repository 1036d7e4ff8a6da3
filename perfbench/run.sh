#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources into .bench_build and
# runs it; every argument is passed through:
#
#   bash perfbench/run.sh --workload decide-zipf --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache lives under
# .bench_build too, so the run reads and writes nothing outside the
# checkout and never touches the network.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
