package asm

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"upim/internal/isa"
)

var update = flag.Bool("update", false, "rewrite testdata/errors.golden")

// shapes are valid operand lists for each format, and byOp those of the
// opcodes whose operands differ from their format's.
var (
	shapes = map[isa.Format][]string{
		isa.FmtRRR:  {"r1, r2, r3", "r1, r2, 7, z, 0"},
		isa.FmtRI32: {"r1, 5"},
		isa.FmtMem:  {"r1, r2, 8"},
		isa.FmtDMA:  {"r1, r2, r3", "r1, r2, 64"},
		isa.FmtJcc:  {"r1, r2, 0", "r1, 7, 0"},
		isa.FmtCtl:  {"0"},
		isa.FmtSync: {"3, 0"},
		isa.FmtNone: {"r1, 2"},
	}
	byOp = map[isa.Opcode][]string{
		isa.OpMOV:     {"r1, r2", "r1, r2, z, 0"},
		isa.OpJREG:    {"r1"},
		isa.OpRELEASE: {"3"},
		isa.OpNOP:     {""},
		isa.OpSTOP:    {""},
	}
	// badTokens stand in for one operand at a time: a bad register, a
	// malformed immediate and immediates out of every field's range (the
	// last wraps to 0 in 32 bits).
	badTokens = []string{"r99", "12q", "99999", "-99999", "8388608", "4294967296"}
)

// errorCases lists, for every mnemonic, a valid source line, the line with
// one operand too many and one too few, and the line with each operand
// replaced by each bad token, after syntaxErrorCases' sources.
func errorCases() []string {
	var srcs []string
	for _, c := range syntaxErrorCases {
		srcs = append(srcs, c.src)
	}
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		list, ok := byOp[op]
		if !ok {
			list = shapes[op.Format()]
		}
		for _, shape := range list {
			var args []string
			if shape != "" {
				args = strings.Split(shape, ", ")
			}
			line := func(args []string) string { return strings.TrimSpace(op.String() + " " + strings.Join(args, ", ")) }
			srcs = append(srcs, line(args), line(append(args[:len(args):len(args)], "r0")))
			if len(args) > 0 {
				srcs = append(srcs, line(args[:len(args)-1]))
			}
			for i := range args {
				for _, bad := range badTokens {
					mut := append([]string(nil), args...)
					mut[i] = bad
					srcs = append(srcs, line(mut))
				}
			}
		}
	}
	return srcs
}

// TestErrorsGolden pins the full text Assemble returns for each of
// errorCases ("ok" where it assembles) to testdata/errors.golden.
func TestErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, src := range errorCases() {
		res := "ok"
		if _, err := Assemble("e", src); err != nil {
			res = err.Error()
		}
		fmt.Fprintf(&b, "%q => %s\n", src, res)
	}
	const path = "testdata/errors.golden"
	if *update {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := strings.Split(b.String(), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(got), len(wantLines)) {
		if got[i] != wantLines[i] {
			t.Fatalf("%s:%d:\n got %s\nwant %s", path, i+1, got[i], wantLines[i])
		}
	}
	if len(got) != len(wantLines) {
		t.Fatalf("%s: %d lines, want %d", path, len(got), len(wantLines))
	}
}
