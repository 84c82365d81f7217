#!/usr/bin/env bash
# The single entry point BENCHMARK.json names. It builds the benchmark once
# (go's build cache makes every later build a no-op) and runs it:
#
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one workload in this process, as the driver runs it; the last line of
#       standard output is the JSON result.
#   benchmark/run.sh [-seconds S] [-seed N] [-jobs J]
#       every workload, untraced then traced, a summary, and the full results
#       in benchmark/results/<commit>.json.
#   benchmark/run.sh -compare A.json B.json
#
# Everything it writes stays under benchmark/.work and benchmark/results.
set -euo pipefail
cd "$(dirname "$0")/.."
work=$PWD/benchmark/.work
mkdir -p "$work"
# Keep the toolchain's own files inside the checkout too, and off the network.
GOCACHE=$work/gocache GOPATH=$work/gopath GOTMPDIR=$work XDG_CONFIG_HOME=$work/config \
GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false \
	go build -C benchmark -o "$work/benchmark" .

for arg in "$@"; do
	case $arg in
	-workload | --workload | -workload=* | --workload=* | -compare | --compare)
		exec "$work/benchmark" "$@"
		;;
	esac
done
commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
mkdir -p benchmark/results
BENCH_COMMIT=$commit exec "$work/benchmark" -out "benchmark/results/$commit.json" "$@"
