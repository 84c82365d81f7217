package main

import (
	"strings"
	"testing"
)

// TestExitCodes pins the convention every command follows: a mistake in the
// invocation exits 2 before anything is simulated, a run that fails exits 1.
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-mode bogus", 2},
		{"-scale bogus", 2},
		{"serve -scale bogus", 2},
		{"serve -policy bogus", 2},
		{"serve -tenants a=VA:NaN", 2},
		{"serve -loads NaN", 2},
		{"-kernel NOPE -scale tiny", 1},
		{"-dpus 0 -scale tiny", 1},
		{"-kernel VA -scale tiny -threads 2", 0},
	} {
		if got := run(strings.Fields(tc.args)); got != tc.want {
			t.Errorf("upimulator %s: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}
