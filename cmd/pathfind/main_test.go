package main

import (
	"context"
	"flag"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upim"
)

// TestAxesUsage: the -axes help names every axis ParseAxes accepts.
func TestAxesUsage(t *testing.T) {
	fs := flag.NewFlagSet("pathfind", flag.ContinueOnError)
	var sp spaceFlags
	sp.register(fs)
	usage := fs.Lookup("axes").Usage
	for _, axis := range []string{"arch", "tasklets", "dpus", "freq", "link", "ilp", "mode", "policy"} {
		if !strings.Contains(usage, axis) {
			t.Errorf("-axes usage %q does not name the %s axis", usage, axis)
		}
	}
}

// TestExitCodes: a mistake in the invocation exits 2 before anything is
// simulated, a run that fails exits 1 (cmd/upimulator pins the same table).
func TestExitCodes(t *testing.T) {
	for _, tc := range []struct {
		args string
		want int
	}{
		{"-h", 0},
		{"-nosuchflag", 2},
		{"-scale bogus", 2},
		{"-axes arch=nosuch", 2},
		{"-profile /nonexistent.json -energy", 2},
		{"-bench BFS -axes arch=hbm-pim", 2}, // every point infeasible
		// Flags nothing in the invocation would read.
		{"-bench VA -eps 0.5", 2},
		{"-bench VA -goals time", 2},
		{"-bench VA -band 0.1", 2},
		// The coordinator is served (serve/work), not a flag of the
		// exploration: these flags are undefined.
		{"-bench VA -workers 2", 2},
		{"-bench VA -events " + t.TempDir() + "/e.jsonl", 2},
		{"-bench VA -coordinator", 2},
		{"-bench VA -axes tasklets=1 -coordinator -workers 1 -store " + t.TempDir(), 2},
		{"-bench NOPE -axes tasklets=1", 2},
		{"-bench VA -axes tasklets=1 -store /dev/null/store", 1},
		{"-bench VA -axes tasklets=1,2 -plan", 0},
		{"-bench VA -axes tasklets=1,2 -scale tiny -pareto", 0},

		{"calibrate -h", 0},
		{"calibrate -nosuchflag", 2},
		{"calibrate -scale bogus", 2},
		{"calibrate -check -bench VA -out /nonexistent.json", 1},
		{"serve -h", 0},
		{"serve -nosuchflag", 2},
		{"serve", 2}, // needs -store
		{"serve -store " + t.TempDir() + " -bench VA -scale bogus", 2},
		{"serve -store " + t.TempDir() + " -bench VA -axes arch=nosuch", 2},
		{"work -h", 0},
		{"work -nosuchflag", 2},
		{"work", 2}, // needs -connect
	} {
		if got := run(strings.Fields(tc.args)); got != tc.want {
			t.Errorf("pathfind %s: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// runStderr runs the command with os.Stderr captured.
func runStderr(t *testing.T, args ...string) (code int, stderr string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stderr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stderr
	os.Stderr = f
	code = run(args)
	os.Stderr = saved
	f.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return code, string(data)
}

// TestHTTPStoreCorruptWarning: a corrupt entry in a store served over HTTP
// reaches the client as a miss, so the end-of-run warning must take its
// count from the server's store.
func TestHTTPStoreCorruptWarning(t *testing.T) {
	axes, err := upim.ParseAxes("tasklets=1")
	if err != nil {
		t.Fatal(err)
	}
	space := upim.NewDesignSpace([]string{"VA"}, axes...)
	space.Scale = upim.ScaleTiny
	store, err := upim.OpenResultStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	x, err := upim.Explore(context.Background(), space, upim.ExploreOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if err := store.CorruptEntry(x.Outcomes[0].Key); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(upim.NewResultStoreServer(store))
	defer srv.Close()

	code, stderr := runStderr(t, "-bench", "VA", "-axes", "tasklets=1", "-scale", "tiny", "-store", srv.URL)
	if code != 0 {
		t.Fatalf("pathfind over the HTTP store: exit %d\n%s", code, stderr)
	}
	if !strings.Contains(stderr, "1 simulated") || !strings.Contains(stderr, "1 corrupt entries") {
		t.Fatalf("stderr does not report the re-simulated corrupt entry:\n%s", stderr)
	}
}
