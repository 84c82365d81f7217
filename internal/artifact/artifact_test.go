package artifact

import (
	"bytes"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// demoTable exercises every cell kind: strings, ints, formatted floats,
// percentages, custom-formatted numerics, units, and a pipe in a title.
func demoTable() *Table {
	t := &Table{
		Key: "demo", ID: "Figure 99", Title: "demo | artifact", Scale: "tiny",
		Columns: []Column{
			{Name: "benchmark"}, {Name: "threads"},
			{Name: "kernel", Unit: "ms"}, {Name: "util"}, {Name: "bytes"}, {Name: "result"},
		},
	}
	t.AddRow(Str("VA"), Int(16), Num(3.14159), Pct(0.123), Raw("4K", 4096), Str("PASS"))
	t.AddRow(Str("BS"), Int(1), Num(123.456), Pct(0.987654), Raw("0K", 0), Str("PASS"))
	return t
}

func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s does not match golden file:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestGoldenCSV(t *testing.T) {
	var b bytes.Buffer
	if err := demoTable().WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "demo.csv", b.Bytes())
}

func TestGoldenJSON(t *testing.T) {
	var b bytes.Buffer
	if err := demoTable().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "demo.json", b.Bytes())
}

func TestGoldenMarkdown(t *testing.T) {
	var b bytes.Buffer
	if err := demoTable().WriteMarkdown(&b); err != nil {
		t.Fatal(err)
	}
	golden(t, "demo.md", b.Bytes())
}

func TestGoldenConsole(t *testing.T) {
	var b bytes.Buffer
	demoTable().Fprint(&b)
	golden(t, "demo.txt", b.Bytes())
}

// TestRoundTrip encodes a table to JSON and back and requires exact
// equality, including the numeric/text distinction of every cell.
func TestRoundTrip(t *testing.T) {
	orig := demoTable()
	data, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Key != orig.Key || back.ID != orig.ID || back.Title != orig.Title || back.Scale != orig.Scale {
		t.Fatalf("metadata changed: %+v", back)
	}
	if len(back.Columns) != len(orig.Columns) || len(back.Rows) != len(orig.Rows) {
		t.Fatalf("shape changed: %+v", back)
	}
	for i := range orig.Columns {
		if back.Columns[i] != orig.Columns[i] {
			t.Errorf("column %d: %+v != %+v", i, back.Columns[i], orig.Columns[i])
		}
	}
	for r := range orig.Rows {
		for c := range orig.Rows[r] {
			if back.Rows[r][c] != orig.Rows[r][c] {
				t.Errorf("cell (%d,%d): %+v != %+v", r, c, back.Rows[r][c], orig.Rows[r][c])
			}
		}
	}
	if err := Compare(back, orig, 0); err != nil {
		t.Errorf("round-tripped table does not compare clean: %v", err)
	}
}

func TestCompare(t *testing.T) {
	base := demoTable()

	t.Run("identical", func(t *testing.T) {
		if err := Compare(demoTable(), base, 0); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("within-epsilon", func(t *testing.T) {
		got := demoTable()
		got.Rows[0][2].Num *= 1.004
		if err := Compare(got, base, 0.01); err != nil {
			t.Fatalf("0.4%% drift must pass at eps 1%%: %v", err)
		}
	})
	t.Run("beyond-epsilon", func(t *testing.T) {
		got := demoTable()
		got.Rows[0][2].Num *= 1.10
		err := Compare(got, base, 0.01)
		if err == nil {
			t.Fatal("10% drift must fail at eps 1%")
		}
		if !strings.Contains(err.Error(), "kernel (ms)") || !strings.Contains(err.Error(), "VA") {
			t.Errorf("diff message should name the column and row: %v", err)
		}
	})
	t.Run("text-change", func(t *testing.T) {
		got := demoTable()
		got.Rows[1][5] = Str("FAIL: mismatch")
		if Compare(got, base, 0.5) == nil {
			t.Fatal("text change must fail regardless of epsilon")
		}
	})
	t.Run("shape-change", func(t *testing.T) {
		got := demoTable()
		got.Rows = got.Rows[:1]
		if Compare(got, base, 0.5) == nil {
			t.Fatal("dropped row must fail")
		}
		got = demoTable()
		got.Columns[2].Unit = "s"
		if Compare(got, base, 0.5) == nil {
			t.Fatal("changed column unit must fail")
		}
	})
	t.Run("nan-never-matches", func(t *testing.T) {
		got := demoTable()
		got.Rows[0][2].Num = math.NaN()
		if Compare(got, base, 0.5) == nil {
			t.Fatal("a value degrading to NaN must fail the check")
		}
	})
	t.Run("kind-change", func(t *testing.T) {
		got := demoTable()
		got.Rows[0][1] = Str("16")
		if Compare(got, base, 0.5) == nil {
			t.Fatal("numeric cell turning textual must fail")
		}
	})
}

func TestWriteReport(t *testing.T) {
	dir := t.TempDir()
	tabs := []*Table{demoTable()}
	if err := WriteReport(dir, tabs); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"demo.csv", "demo.json", "demo.md", "index.md"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("report missing %s: %v", name, err)
		}
		if len(data) == 0 {
			t.Fatalf("report file %s is empty", name)
		}
	}
	idx, _ := os.ReadFile(filepath.Join(dir, "index.md"))
	if !strings.Contains(string(idx), "Figure 99") || !strings.Contains(string(idx), "demo.csv") {
		t.Fatalf("index.md should link artifacts to paper figure numbers:\n%s", idx)
	}
	// Round-trip through the exported JSON.
	data, err := os.ReadFile(filepath.Join(dir, "demo.json"))
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeTable(data)
	if err != nil {
		t.Fatal(err)
	}
	if err := Compare(back, tabs[0], 0); err != nil {
		t.Fatal(err)
	}
}

func TestCellLookup(t *testing.T) {
	tab := demoTable()
	if v := tab.Cell(0, "util"); !v.Numeric || v.Num != 0.123 {
		t.Fatalf("Cell lookup: %+v", v)
	}
	if v := tab.Cell(5, "util"); v.Numeric || v.Text != "" {
		t.Fatalf("out-of-range row must be zero: %+v", v)
	}
	if v := tab.Cell(0, "nope"); v != (Value{}) {
		t.Fatalf("unknown column must be zero: %+v", v)
	}
}
