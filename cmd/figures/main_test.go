package main

import (
	"context"
	"flag"
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

// TestUnknownExperimentUsage pins the usage message of an unknown -exp: it
// names every experiment, in registry order.
func TestUnknownExperimentUsage(t *testing.T) {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	body := figures(fs)
	if err := fs.Parse([]string{"-exp", "nope"}); err != nil {
		t.Fatal(err)
	}
	const want = `unknown experiment "nope" (try: table1, table2, validation, fig5, fig6, fig7, fig8, fig9, fig10, ` +
		`fig11, fig12, fig13, mmu, fig15, fig16, table3, energy, crossarch)`
	if err := body(context.Background()); err == nil || err.Error() != want {
		t.Fatalf("got %v\nwant %s", err, want)
	}
}
