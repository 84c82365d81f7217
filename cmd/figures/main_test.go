package main

import (
	"strings"
	"testing"
)

// TestExitCodes: a mistake in the invocation exits 2 before anything is
// simulated, a run that fails exits 1 (cmd/upimulator pins the same table).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-h", 0},
		{"-list", 0},
		{"-nosuchflag", 2},
		{"-scale bogus", 2},
		{"-exp nosuch", 2},
		{"-exp table1 -eps 0.5", 2},
		{"-exp table1 -check -bench VA", 2},
		{"-exp table1 -profile /dev/null", 2},
		{"-exp energy -profile /nonexistent.json", 2},
		{"-exp fig14 -bench NOPE", 1},
		{"-exp table1 -scale tiny -check -eps 1e-12", 0},
	} {
		if got := run(strings.Fields(tc.args)); got != tc.want {
			t.Errorf("figures %s: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
