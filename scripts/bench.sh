#!/bin/sh
# bench.sh — run the pinned benchmark set and write a machine-readable
# snapshot (default BENCH_v9.json) for cross-PR performance tracking.
# The pinned set is the fast, stable subset of the root bench_test.go
# harness: mutation-strategy costs, mutant-runner throughput (one threaded
# machine per mutant), the exec-bounded fuzz loop per model, the full
# harness orchestration path, the original-vs-optimized VM comparison, and
# the switch-vs-threaded backend comparison. Every benchmark runs 5 times
# (-count 5), so the snapshot holds 5 samples per name and run-to-run noise
# is visible.
set -eu

cd "$(dirname "$0")/.."
out="${1:-BENCH_v9.json}"
pattern='^(BenchmarkTable1MutationStrategies|BenchmarkMutantKill|BenchmarkEngine|BenchmarkHarnessTable3|BenchmarkVMOptimized|BenchmarkVMBackends)$'

raw=$(go test -run '^$' -bench "$pattern" -benchtime 200ms -count 5 .)
echo "$raw" >&2

echo "$raw" | awk -v date="$(date -u +%Y-%m-%dT%H:%M:%SZ)" '
BEGIN {
	print "{"
	printf "  \"date\": \"%s\",\n", date
	printf "  \"benchmarks\": [\n"
	n = 0
}
/^Benchmark/ {
	if (n++) printf ",\n"
	printf "    {\"name\": \"%s\", \"iters\": %s, \"ns_per_op\": %s", $1, $2, $3
	for (i = 5; i < NF; i += 2) printf ", \"%s\": %s", $(i+1), $i
	printf "}"
}
END {
	printf "\n  ]\n}\n"
}' >"$out"
echo "wrote $out"
