#!/bin/sh
# bench.sh — run the figure benchmark suite and emit BENCH_15.json, the
# machine-readable perf trajectory record (ns/op + headline figure metrics
# per benchmark). CI uploads the JSON as an artifact on every push.
#
# Environment knobs:
#   BENCHTIME   passed to -benchtime (default 1s; use 1x for a smoke run)
#   BENCH       benchmark filter regex (default '.', the whole suite)
#   OUT         output path (default BENCH_15.json)
set -eu

BENCHTIME="${BENCHTIME:-1s}"
BENCH="${BENCH:-.}"
OUT="${OUT:-BENCH_15.json}"

cd "$(dirname "$0")/.."

# Capture to a file first so a failing/panicking benchmark fails this script
# (a pipeline would discard go test's exit status) and never publishes a
# silently truncated JSON record.
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT
if ! go test -bench="$BENCH" -benchmem -run='^$' -benchtime="$BENCHTIME" . >"$tmp" 2>&1; then
	cat "$tmp" >&2
	echo "bench.sh: go test -bench failed; not writing $OUT" >&2
	exit 1
fi
cat "$tmp"
go run ./tools/bench2json -out "$OUT" <"$tmp"
echo "bench.sh: wrote $OUT" >&2
