#!/bin/sh
# loc.sh — the repo's size as ROADMAP.md measures it: lines of tracked,
# non-test Go outside benchmark/ (the repo benchmark is its own module and
# its own yardstick), per package directory and in total.
set -eu
cd "$(dirname "$0")/.."
git ls-files '*.go' | grep -v '^benchmark/' | grep -v '_test\.go$' | xargs wc -l |
	awk '$2 != "total" {
		dir = $2
		if (!sub("/[^/]*$", "", dir)) dir = "."
		lines[dir] += $1
		total += $1
	}
	END {
		for (dir in lines) printf "%7d %s\n", lines[dir], dir | "sort -k2"
		close("sort -k2")
		printf "%7d total\n", total
	}'
