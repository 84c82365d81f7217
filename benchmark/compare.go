package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

func readSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Untraced) == 0 {
		return nil, fmt.Errorf("%s: no untraced results (is it an -out file of the all-workloads mode?)", path)
	}
	return &set, nil
}

// judge gives the verdict on one (metric, workload) pair: a is the base, b
// the candidate. worse is b's relative change in the bad direction, with a's
// median as the base; spread is the wider of the two runs' IQR over median,
// where a run has the five samples that make quartiles mean something
// (setup_s has three, the first of them in a cold process).
func judge(d metricDef, a, b sample) (verdict string, worse, spread float64) {
	worse = (b.Median - a.Median) / math.Abs(a.Median)
	if d.better == "higher" {
		worse = -worse
	}
	for _, s := range []sample{a, b} {
		if s.N >= 5 {
			spread = math.Max(spread, s.IQR/math.Abs(s.Median))
		}
	}
	switch {
	case spread > d.bound:
		return "unresolved", worse, spread
	case worse > d.bound:
		return "regressed", worse, spread
	case worse < -d.bound:
		return "improved", worse, spread
	}
	return "unchanged", worse, spread
}

// compareFiles prints one row per (end-to-end metric, workload) of two -out
// files and returns the exit code: 1 when any pair regressed or the
// candidate failed more operations, else 0.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readSet(pathA)
	if err == nil {
		var b *resultSet
		if b, err = readSet(pathB); err == nil {
			return compareSets(w, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	return 2
}

func compareSets(w io.Writer, a, b *resultSet) int {
	byName := map[string]*result{}
	for _, r := range b.Untraced {
		byName[r.Workload] = r
	}
	fmt.Fprintf(w, "base A: commit %s; candidate B: commit %s; ratios are B/A; all times are host time\n", a.Machine.Commit, b.Machine.Commit)
	fmt.Fprintf(w, "%-16s %-12s %13s %11s %13s %11s %8s %8s  %s\n",
		"workload", "metric", "A median", "A iqr", "B median", "B iqr", "B/A", "bound", "verdict")
	code := 0
	for _, ra := range a.Untraced {
		rb, ok := byName[ra.Workload]
		if !ok {
			fmt.Fprintf(w, "%-16s missing from B\n", ra.Workload)
			code = 1
			continue
		}
		for _, d := range endToEnd {
			ma, mb := ra.Metrics[d.name], rb.Metrics[d.name]
			verdict, _, _ := judge(d, ma, mb)
			if verdict == "regressed" {
				code = 1
			}
			fmt.Fprintf(w, "%-16s %-12s %13.6g %11.3g %13.6g %11.3g %8.4f %8.2g  %s\n",
				ra.Workload, d.name, ma.Median, ma.IQR, mb.Median, mb.IQR, mb.Median/ma.Median, d.bound, verdict)
		}
		match := "matched"
		if ra.Digest != rb.Digest {
			match = fmt.Sprintf("DIFFER (%.12s vs %.12s): the simulated statistics changed", ra.Digest, rb.Digest)
		}
		fmt.Fprintf(w, "%-16s digest %s; failed %d of %d (A), %d of %d (B)\n",
			ra.Workload, match, ra.Failed, ra.Attempted, rb.Failed, rb.Attempted)
	}
	return code
}
