package main

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
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
		{"-ilp Q", 2},
		{"-ilp DD", 2},
		{"-scale bogus", 2},
		{"serve -scale bogus", 2},
		{"serve -policy bogus", 2},
		{"serve -tenants a=VA:NaN", 2},
		{"serve -loads NaN", 2},
		{"-kernel NOPE -scale tiny", 1},
		{"-dpus 0 -scale tiny", 1},
		{"-kernel VA -scale tiny -threads 2", 0},
		// What the SIMT engine would ignore is refused (config.Validate).
		{"-kernel GEMV -mode simt", 0},
		{"-kernel GEMV -mode simt -ilp D", 1},
		{"-kernel GEMV -mode simt -mmu", 1},

		{"-h", 0},
		{"-nosuchflag", 2},
		{"serve -h", 0},
		{"serve -nosuchflag", 2},
		// -load is validated like -loads; NaN used to reach the event loop.
		{"serve -load NaN", 2},
		{"serve -load Inf", 2},
		{"serve -load -1", 2},
		// A bad sweep argument is caught before the single-load run simulates.
		{"serve -loads 0.5 -policies bogus", 2},
		// Flags nothing in the invocation would read.
		{"serve -policies fifo", 2},
		// More DPUs than a full server: refused before anything is sized by
		// them (these used to panic). A batch bound past the stream is the
		// stream.
		{"serve -groups 4611686018427387904", 2},
		{"serve -groupdpus 4611686018427387904", 2},
		{"serve -groups 1281 -groupdpus 2", 2},
		{"serve -batch 4611686018427387904", 0},
		{"serve -eps 0.5", 2},
		{"-kernel VA -energy", 2},
		{"-kernel VA -out " + t.TempDir(), 2},
		{"-kernel all -profile /dev/null", 2},
		// An unreadable or invalid profile is a usage error, as in figures.
		{"-kernel all -energy -profile /nonexistent.json", 2},
		{"-kernel all -energy -profile /dev/null", 2},
	} {
		if got := run(strings.Fields(tc.args)); got != tc.want {
			t.Errorf("upimulator %s: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestSuiteGolden pins `upimulator -kernel all` to what cmd/prim printed and
// exported at the commit that deleted it (testdata/suite*.golden is its
// stdout, *.out.sha256 the sha256sum listing of its -out directory).
func TestSuiteGolden(t *testing.T) {
	for _, tc := range []struct{ golden, args string }{
		{"suite", "-kernel all -scale tiny"},
		{"suite_energy", "-kernel all -scale tiny -energy"},
		{"suite_cache", "-kernel all -scale tiny -mode cache -dpus 2"},
		{"simt", "-kernel GEMV -scale tiny -mode simt"}, // the one-kernel summary with its SIMT line
	} {
		t.Run(tc.golden, func(t *testing.T) {
			args := strings.Fields(tc.args)
			sums, err := os.ReadFile(filepath.Join("testdata", tc.golden+".out.sha256"))
			out := t.TempDir()
			if err == nil {
				args = append(args, "-out", out)
			}
			code, got := capture(t, args)
			if code != 0 {
				t.Fatalf("upimulator %s: exit %d", tc.args, code)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("upimulator %s: stdout differs from %s.golden:\n%s", tc.args, tc.golden, got)
			}
			if sums != nil && sha256Listing(t, out) != string(sums) {
				t.Errorf("upimulator %s: -out export differs from %s.out.sha256:\n%s", tc.args, tc.golden, sha256Listing(t, out))
			}
		})
	}
}

// TestILPBase: -ilp takes the ilp axis's vocabulary, where "base" is the
// empty ladder rung, so -ilp base runs exactly what -ilp "" runs.
func TestILPBase(t *testing.T) {
	args := []string{"-kernel", "VA", "-scale", "tiny", "-threads", "2", "-ilp"}
	code, empty := capture(t, append(args, ""))
	if code != 0 {
		t.Fatalf("-ilp \"\": exit %d", code)
	}
	code, base := capture(t, append(args, "base"))
	if code != 0 {
		t.Fatalf("-ilp base: exit %d", code)
	}
	if string(base) != string(empty) {
		t.Errorf("-ilp base prints\n%s\nwhile -ilp \"\" prints\n%s", base, empty)
	}
}

// TestSIMTThreadsCountWarps: under -mode simt, -threads counts warps of
// SIMTWidth lanes, as the explorer's tasklets axis reads it, so four warps
// launch 64 lanes.
func TestSIMTThreadsCountWarps(t *testing.T) {
	code, out := capture(t, strings.Fields("-kernel GEMV -scale tiny -mode simt -threads 4"))
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	if first, _, _ := strings.Cut(string(out), "\n"); !strings.Contains(first, " 64 tasklets ") {
		t.Errorf("-threads 4 under simt prints %q, want 64 tasklets", first)
	}
}

// capture runs upimulator with args and returns its exit code and stdout.
func capture(t *testing.T, args []string) (int, []byte) {
	t.Helper()
	stdout := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(stdout)
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = f
	code := run(args)
	os.Stdout = saved
	f.Close()
	out, err := os.ReadFile(stdout)
	if err != nil {
		t.Fatal(err)
	}
	return code, out
}

// sha256Listing renders dir the way `sha256sum *` run inside it does.
func sha256Listing(t *testing.T, dir string) string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var listing strings.Builder // ReadDir sorts by name, as the shell's * does
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&listing, "%x  %s\n", sha256.Sum256(data), e.Name())
	}
	return listing.String()
}
