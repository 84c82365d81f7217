#!/bin/sh
# bench_diff.sh — run the figure benchmark suite and print per-benchmark
# deltas (ns/op, B/op, allocs/op, KIPS) against the committed baseline
# report, failing on allocs/op regressions in the gated benchmarks. CI runs
# this on every push and uploads the delta table as an artifact.
#
# Environment knobs:
#   BENCHTIME   passed to -benchtime (default 1s, matching how the baseline
#               is generated — shorter settings under-amortize cold-start
#               allocations and make allocs/op incomparable to the baseline)
#   BENCH       benchmark filter regex (default '.', the whole suite)
#   BASELINE    baseline JSON report (default BENCH_15.json)
#   DIFFOUT     also write the delta table to this file (default none)
#   GATE        comma-separated benchmarks whose allocs/op must not regress
set -eu

BENCHTIME="${BENCHTIME:-1s}"
BENCH="${BENCH:-.}"
BASELINE="${BASELINE:-BENCH_15.json}"
DIFFOUT="${DIFFOUT:-}"
GATE="${GATE:-BenchmarkTable1_Config,BenchmarkTable2_Datasets,BenchmarkServeThroughput,BenchmarkServeLoadSweep,BenchmarkHBMPIMRate,BenchmarkPathfindResume,BenchmarkWriteReport}"

cd "$(dirname "$0")/.."

# Capture to a file first so a failing/panicking benchmark fails this script
# (a pipeline would discard go test's exit status).
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
if ! go test -bench="$BENCH" -benchmem -run='^$' -benchtime="$BENCHTIME" . >"$tmp" 2>&1; then
	cat "$tmp" >&2
	echo "bench_diff.sh: go test -bench failed" >&2
	exit 1
fi

if [ -n "$DIFFOUT" ]; then
	go run ./tools/bench2json -baseline "$BASELINE" -gate "$GATE" -out "$DIFFOUT" <"$tmp"
	cat "$DIFFOUT"
else
	go run ./tools/bench2json -baseline "$BASELINE" -gate "$GATE" <"$tmp"
fi
