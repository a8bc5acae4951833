#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it with the given arguments. Everything the Go tool
# writes (build cache, module cache, telemetry counters) is kept inside
# .bench_build/ too, so a run reads and writes only inside its checkout.
#
#   bash benchmark/run.sh --workload compute_hit --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "benchmark/run.sh: $root is not a checkout of the repository (no go.mod and internal/ next to benchmark/)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"

GOCACHE="$build/go-cache" GOPATH="$build/go-path" GOMODCACHE="$build/go-path/pkg/mod" \
XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= \
	go build -o "$build/mira-benchmark" ./benchmark

exec "$build/mira-benchmark" "$@"
