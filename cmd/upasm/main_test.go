package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upim/internal/cli"
)

var update = flag.Bool("update", false, "rewrite testdata/three.golden")

// threeSymbols declares its statics out of name order, so address order,
// name order and Go's map order all differ.
const threeSymbols = `; three statics and a loop over the middle one
.alloc zeta 64
.word  alpha 1 2 3 4
.alloc mid 16 16
	movi r0, mid
	movi r1, 4
loop:
	sw r1, r0, 0
	add r0, r0, 4
	sub r1, r1, 1, nz, loop
	movi r2, alpha
	lw r3, r2, 0
	movi r4, zeta
	sw r3, r4, 0
	stop
`

// bigStatics fits WRAM on its own but not beside 16 tasklet stacks, so it
// links only where the stacks are not carved out: cache mode remaps the
// statics to MRAM, and SIMT kernels keep their locals in the vector RF.
const bigStatics = `.alloc big 40960
	stop
`

// TestExitCodes: -mode takes the memory modes' own names, a name that is
// not one is a usage error, and the program links under the mode named.
func TestExitCodes(t *testing.T) {
	t.Chdir(t.TempDir())
	for name, src := range map[string]string{"three.S": threeSymbols, "big.S": bigStatics} {
		if err := os.WriteFile(name, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		args string
		want int
	}{
		{"three.S", 0},
		{"-mode bogus three.S", 2},
		{"-mode simt three.S", 0},
		{"", 2},
		{"-nosuchflag three.S", 2},
		{"nosuch.S", 1},
		{"big.S", 1}, // WRAM overflow
		{"-mode scratchpad big.S", 1},
		{"-mode cache big.S", 0},
		{"-mode simt big.S", 0},
	} {
		if got := cli.Main("upasm", strings.Fields(tc.args), upasm); got != tc.want {
			t.Errorf("upasm %s: exit %d, want %d", tc.args, got, tc.want)
		}
	}
}

// TestOutputGolden assembles a three-symbol program twice and pins upasm's
// stdout: the symbol table is printed in address order, so the same input
// prints the same bytes on every run.
func TestOutputGolden(t *testing.T) {
	golden, err := filepath.Abs(filepath.Join("testdata", "three.golden"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir()) // the program is named after the path it was given
	if err := os.WriteFile("three.S", []byte(threeSymbols), 0o644); err != nil {
		t.Fatal(err)
	}
	runs := make([][]byte, 2)
	for i := range runs {
		f, err := os.Create("stdout")
		if err != nil {
			t.Fatal(err)
		}
		saved := os.Stdout
		os.Stdout = f
		code := cli.Main("upasm", []string{"three.S"}, upasm)
		os.Stdout = saved
		f.Close()
		if code != 0 {
			t.Fatalf("upasm three.S: exit %d", code)
		}
		if runs[i], err = os.ReadFile("stdout"); err != nil {
			t.Fatal(err)
		}
	}
	if string(runs[0]) != string(runs[1]) {
		t.Errorf("two runs differ:\n%s\n---\n%s", runs[0], runs[1])
	}
	if *update {
		if err := os.WriteFile(golden, runs[0], 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if string(runs[0]) != string(want) {
		t.Errorf("stdout differs from testdata/three.golden:\n%s", runs[0])
	}
}
