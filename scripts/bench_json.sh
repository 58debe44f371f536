#!/usr/bin/env sh
# bench_json.sh — run the crash-state construction / reorder / fault /
# campaign benchmarks once (-benchtime=1x keeps this CI-cheap) and emit the results
# as BENCH_construct.json: ns/op, replayed-writes/state, allocs/op, B/state
# (per-state allocation), and the enumeration-time skip counters
# (states-skipped, class-skipped-states) per benchmark. The committed file
# at the repo root is the perf baseline each
# PR's numbers are compared against; the CI job is non-blocking so a noisy
# runner never fails a build, but the JSON lands in the job log and artifact
# for trend inspection.
#
# Usage: scripts/bench_json.sh [output-file]
set -eu
cd "$(dirname "$0")/.."
out="${1:-BENCH_construct.json}"

# The engine-comparison benchmarks (incremental vs the from-scratch
# reference) live in internal/crashmonkey; the campaign ones at the root.
go test -run '^$' \
  -bench 'BenchmarkCrashMonkeyConstructCrashState|BenchmarkAblationReorderExploration|BenchmarkAblationFaultExploration|BenchmarkTable4Seq1$|BenchmarkCampaignReorderK[12]$' \
  -benchtime 1x -benchmem ./internal/crashmonkey . |
  go run ./cmd/benchjson >"$out"

echo "wrote $out:" >&2
cat "$out" >&2
