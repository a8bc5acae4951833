#!/usr/bin/env bash
# Checks the benchmark itself: it builds, is formatted and vets clean,
# BENCHMARK.json is what the declarations generate, and every workload's
# smoke size runs clean twice with the same seed and agrees with itself on
# every simulated number (the repository's run-twice-and-cmp house style).
# Not yet wired into .github/workflows/ci.yml: that file is outside the
# benchmark's paths.
#
#   bash benchmark/ci.sh
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
out="$root/.bench_build/ci"
mkdir -p "$out"

go build -o "$out/bench" ./benchmark

unformatted="$(gofmt -l benchmark)"
if [ -n "$unformatted" ]; then
	echo "gofmt: $unformatted" >&2
	exit 1
fi
go vet ./benchmark/

"$out/bench" -contract | cmp - BENCHMARK.json

# The simulated-clock section of a run's output: every metric whose clock
# is sim or count. Host-clock lines differ from run to run by design.
sim_section() { grep -E '^metric .* clock=(sim|count)' "$1"; }

for workload in compute_hit pointer_chase scan_rw scaleout_faults; do
	for trace in 0 1; do
		for run in a b; do
			(cd "$out" && ./bench -smoke -workload "$workload" -seed 1 -trace "$trace" >"$workload.$trace.$run.txt")
			sim_section "$out/$workload.$trace.$run.txt" >"$out/$workload.$trace.$run.sim"
		done
		cmp "$out/$workload.$trace.a.sim" "$out/$workload.$trace.b.sim"
		echo "ok $workload trace=$trace: $(wc -l <"$out/$workload.$trace.a.sim") simulated numbers identical across two runs"
	done
done
