package upim_test

import (
	"flag"
	"fmt"
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api.golden")

// TestAPIGolden pins the façade's surface: one line per exported
// package-level identifier of the non-test files, kind and name. A new
// exported name needs a deliberate -update in the same diff, and a removed
// one shows up there as a deleted line.
func TestAPIGolden(t *testing.T) {
	fset := token.NewFileSet()
	paths, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, path := range paths {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "upim")
	if err != nil {
		t.Fatal(err)
	}

	var lines []string
	values := func(kind string, vs []*doc.Value) {
		for _, v := range vs {
			for _, name := range v.Names {
				lines = append(lines, kind+" "+name)
			}
		}
	}
	funcs := func(fs []*doc.Func) {
		for _, f := range fs {
			lines = append(lines, "func "+f.Name)
		}
	}
	values("const", pkg.Consts)
	values("var", pkg.Vars)
	funcs(pkg.Funcs)
	for _, typ := range pkg.Types {
		lines = append(lines, "type "+typ.Name)
		values("const", typ.Consts)
		values("var", typ.Vars)
		funcs(typ.Funcs)
	}
	slices.Sort(lines)
	got := strings.Join(lines, "\n") + "\n"

	const path = "testdata/api.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported surface moved (%d names); rerun with -update if that is meant:\n%s",
			len(lines), lineDiff(string(want), got))
	}
}

// lineDiff lists the lines only one side has, "-" for want and "+" for got.
func lineDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	var b strings.Builder
	for _, l := range w {
		if !slices.Contains(g, l) {
			fmt.Fprintf(&b, "-%s\n", l)
		}
	}
	for _, l := range g {
		if !slices.Contains(w, l) {
			fmt.Fprintf(&b, "+%s\n", l)
		}
	}
	return b.String()
}
