package main

import (
	"flag"
	"os"
	"path/filepath"
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
