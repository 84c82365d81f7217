#!/usr/bin/env bash
# pairs.sh — paired timing of one benchmark workload, the rule a claimed gain
# is held to: N pairs of runs of a parent revision and of the working tree,
# the side that runs first alternating from pair to pair; then, per side, the
# first quartile, median and third quartile of every end-to-end metric that
# BENCHMARK.json declares, how many pairs each side won per metric (ties
# count for neither), and how many operations failed.
#
#   scripts/pairs.sh PARENT WORKLOAD [N [SEED]]
#   make pairs PARENT=<rev> W=<workload> N=10 SEED=1
#
# PARENT is any git revision. It is extracted with `git archive` into
# .work/pairs/parent (a git worktree is not needed), and each side builds
# its benchmark from its own source through its own benchmark/run.sh. The change side is the working tree as it
# stands, uncommitted edits included. Every run's JSON result line is kept in
# .work/pairs/{parent,change}.jsonl.
#
# The last column says whether a gain on that metric would hold: the change
# won at least nine tenths of the pairs and its median is better than the
# parent's by more than the parent's interquartile range.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ $# -lt 2 ] || [ $# -gt 4 ]; then
	echo "usage: scripts/pairs.sh PARENT WORKLOAD [N [SEED]]" >&2
	exit 2
fi
parent=$1 workload=$2 n=${3:-10} seed=${4:-1}
out=$PWD/.work/pairs
rev=$(git rev-parse --verify "$parent^{commit}")
# The extracted parent (and its benchmark's build cache) is kept while the
# revision stays the same.
if [ "$(cat "$out/parent.rev" 2>/dev/null)" != "$rev" ]; then
	rm -rf "$out"
	mkdir -p "$out/parent"
	git archive "$rev" | tar -x -C "$out/parent"
	echo "$rev" > "$out/parent.rev"
fi
: > "$out/parent.jsonl"
: > "$out/change.jsonl"

# metrics prints "name better" for each end-to-end metric of BENCHMARK.json.
metrics() {
	awk '/"end_to_end"/ { e = 1 } /"per_layer"/ { e = 0 }
		e && /"name"/ { gsub(/[",]/, ""); name = $2 }
		e && /"better"/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json
}
names=$(metrics | awk '{ print $1 }')

# run SIDE DIR PAIR runs the workload once from the checkout at DIR and
# prints its metrics on one line.
run() {
	local line
	line=$(bash "$2/benchmark/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 0 | tail -n 1)
	echo "$line" >> "$out/$1.jsonl"
	echo "$line" | awk -v side="$1" -v pair="$3" -v names="$names" '
		{ printf "pair %2d %-6s", pair, side
		  n = split(names, m, "\n")
		  for (i = 1; i <= n; i++) if (match($0, "\"" m[i] "\":\\{[^}]*\"value\":[^,}]*")) {
			v = substr($0, RSTART, RLENGTH); sub(/.*"value":/, "", v)
			printf " %s=%.4g", m[i], v }
		  match($0, /"failed":[0-9]+/); f = substr($0, RSTART + 9, RLENGTH - 9)
		  match($0, /"attempted":[0-9]+/); a = substr($0, RSTART + 12, RLENGTH - 12)
		  printf " failed=%s/%s\n", f, a }'
}

echo "== $workload, seed $seed, $n pairs: parent ${rev:0:12} vs working tree"
for i in $(seq 1 "$n"); do
	if [ $((i % 2)) -eq 1 ]; then
		run parent "$out/parent" "$i"
		run change . "$i"
	else
		run change . "$i"
		run parent "$out/parent" "$i"
	fi
done

metrics | awk -v pf="$out/parent.jsonl" -v cf="$out/change.jsonl" '
	function value(line, name,    v) {
		if (!match(line, "\"" name "\":\\{[^}]*\"value\":[^,}]*")) return ""
		v = substr(line, RSTART, RLENGTH); sub(/.*"value":/, "", v); return v + 0
	}
	function count(line, key) {
		match(line, "\"" key "\":[0-9]+")
		return substr(line, RSTART + length(key) + 3, RLENGTH - length(key) - 3) + 0
	}
	# quantile interpolates linearly in the sorted copy of x[1..k], as the
	# benchmark harness does.
	function quantile(x, k, q,    s, i, j, t, pos, lo, hi) {
		for (i = 1; i <= k; i++) s[i] = x[i]
		for (i = 2; i <= k; i++) for (j = i; j > 1 && s[j-1] > s[j]; j--) { t = s[j]; s[j] = s[j-1]; s[j-1] = t }
		pos = q * (k - 1) + 1; lo = int(pos); hi = lo < k ? lo + 1 : k
		return s[lo] + (pos - lo) * (s[hi] - s[lo])
	}
	{ name[++nm] = $1; better[nm] = $2 }
	END {
		while ((getline line < pf) > 0) { p[++np] = line; pfail += count(line, "failed"); patt += count(line, "attempted") }
		while ((getline line < cf) > 0) { c[++nc] = line; cfail += count(line, "failed"); catt += count(line, "attempted") }
		k = np < nc ? np : nc
		printf "\n%-12s %10s %10s %10s   %10s %10s %10s %8s  %-9s %s\n", "metric", "parent q1", "median", "q3", "change q1", "median", "q3", "delta", "wins c:p", "gain holds"
		for (j = 1; j <= nm; j++) {
			wc = 0; wp = 0
			for (i = 1; i <= k; i++) {
				a[i] = value(p[i], name[j]); b[i] = value(c[i], name[j])
				d = better[j] == "higher" ? b[i] - a[i] : a[i] - b[i]
				if (d > 0) wc++; else if (d < 0) wp++
			}
			pm = quantile(a, k, 0.5); cm = quantile(b, k, 0.5)
			iqr = quantile(a, k, 0.75) - quantile(a, k, 0.25)
			gain = better[j] == "higher" ? cm - pm : pm - cm
			printf "%-12s %10.4g %10.4g %10.4g   %10.4g %10.4g %10.4g %+7.1f%%  %2d:%-6d %s\n", name[j],
				quantile(a, k, 0.25), pm, quantile(a, k, 0.75), quantile(b, k, 0.25), cm, quantile(b, k, 0.75),
				(pm != 0 ? 100 * (cm - pm) / pm : 0), wc, wp, ((10 * wc >= 9 * k && gain > iqr) ? "yes" : "no")
		}
		printf "\nfailed operations: parent %d of %d, change %d of %d\n", pfail, patt, cfail, catt
	}'
