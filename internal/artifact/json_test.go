package artifact

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
)

// oracleJSON is the form WriteJSON must reproduce byte for byte: the
// reflection-driven encoder the hand-written appender replaced. Every
// committed reference and every report compared across runs was produced by
// it, so it stays here as the definition of the format.
func oracleJSON(t *Table) ([]byte, error) {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	enc.SetIndent("", "  ")
	err := enc.Encode(t)
	return b.Bytes(), err
}

// checkJSON holds WriteJSON to the oracle on one table: the same bytes, an
// error exactly when the oracle has one, and nothing written on error.
func checkJSON(t *testing.T, tab *Table) {
	t.Helper()
	want, wantErr := oracleJSON(tab)
	for _, w := range []interface {
		Write([]byte) (int, error)
		Bytes() []byte
	}{new(bytes.Buffer), new(plainWriter)} {
		gotErr := tab.WriteJSON(w)
		if (gotErr != nil) != (wantErr != nil) {
			t.Fatalf("WriteJSON error = %v, encoding/json error = %v (table %+v)", gotErr, wantErr, tab)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("WriteJSON differs from encoding/json (table %+v):\n--- got ---\n%s\n--- want ---\n%s", tab, w.Bytes(), want)
		}
	}
}

// TestDigitsSpellLikeStrconv holds the two spellings made from one float's
// digits to what they replaced — encoding/json's number and strconv's
// shortest 'g' — over the awkward floats, the edges of both exponent rules
// and a million random bit patterns.
func TestDigitsSpellLikeStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	floats := append([]float64{}, awkwardFloats...)
	for _, edge := range []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e5, 1e6, 1e7, 1e20, 1e21, 1e22} {
		floats = append(floats, edge, -edge, math.Nextafter(edge, 0), math.Nextafter(edge, math.Inf(1)))
	}
	for i := 0; i < 1_000_000; i++ {
		if f := math.Float64frombits(rng.Uint64()); !math.IsNaN(f) && !math.IsInf(f, 0) {
			floats = append(floats, f)
		}
		// Numbers a table holds: a few digits at modest exponents.
		floats = append(floats, math.Round(rng.NormFloat64()*1e6)/math.Pow(10, float64(rng.Intn(12))))
	}
	for _, f := range floats {
		ds := digitsOf(f)
		want, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := ds.appendES6(nil); !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): JSON spelling %s, encoding/json %s", f, math.Float64bits(f), got, want)
		}
		if got, want := ds.appendG(nil), strconv.AppendFloat(nil, f, 'g', -1, 64); !bytes.Equal(got, want) {
			t.Fatalf("%v (%#x): 'g' spelling %s, strconv %s", f, math.Float64bits(f), got, want)
		}
	}
}

// plainWriter is a writer that is not a *bytes.Buffer, so both of WriteJSON's
// ways of obtaining its scratch space are held to the oracle.
type plainWriter struct{ b []byte }

func (p *plainWriter) Write(b []byte) (int, error) { p.b = append(p.b, b...); return len(b), nil }
func (p *plainWriter) Bytes() []byte               { return p.b }

// awkwardStrings are the strings whose JSON form has a rule of its own.
var awkwardStrings = []string{
	"", "plain", `quote " and \ backslash`, "<script>&amp;</script>",
	"\x00\x01\x08\x0c\n\r\t\x1f\x7f", "line\u2028sep\u2029para", "café 世界 \U0001f600",
	"bad \xff utf8 \xc3", "\xe2\x80", "|pipe|", "{\"v\": 1}",
}

// awkwardFloats sit on every branch of the number format.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.1, 1e21, 1e21 - 1e5, 1e20, -1e21, 1e-6, 1e-7, 9.99e-7, 1.5e-9, 1e-10,
	5e-324, math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
	1 << 53, 1<<53 + 2, 1 << 62, 123456789012345680, 3.141592653589793, 100, 12.5,
}

func TestWriteJSONMatchesEncodingJSON(t *testing.T) {
	checkJSON(t, demoTable())
	checkJSON(t, &Table{})
	checkJSON(t, &Table{Key: "k", Columns: []Column{}, Rows: [][]Value{}})
	checkJSON(t, &Table{Key: "k", Columns: Cols("a"), Rows: [][]Value{nil, {}, {Str("x")}, nil}})
	checkJSON(t, &Table{Key: "k", ID: "i", Title: "t", Scale: "", Columns: []Column{{Name: "n", Unit: ""}, {Name: "", Unit: "u"}}})
	for _, s := range awkwardStrings {
		checkJSON(t, &Table{
			Key: s, ID: s, Title: s, Scale: s,
			Columns: []Column{{Name: s, Unit: s}},
			Rows:    [][]Value{{Str(s), Raw(s, 1)}},
		})
	}
	for _, f := range awkwardFloats {
		checkJSON(t, &Table{Key: "f", Columns: Cols("v"), Rows: [][]Value{{Num(f), Raw("raw", f), Pct(f)}}})
	}
	checkJSON(t, &Table{Key: "ints", Columns: Cols("v"), Rows: [][]Value{{
		Int(uint64(1<<53 + 1)), Int(uint64(math.MaxUint64)), Int(int64(math.MinInt64)), Int(0),
	}}})
	// A numeric cell JSON cannot carry is an error exactly when encoding/json
	// says so; the same value in a string cell's unused Num is not.
	for _, f := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		bad := &Table{Key: "bad", Columns: Cols("v"), Rows: [][]Value{{Num(1)}, {Str("ok"), Raw("x", f)}}}
		if err := bad.WriteJSON(new(bytes.Buffer)); err == nil {
			t.Fatalf("a %v cell encoded without error", f)
		}
		checkJSON(t, bad)
		checkJSON(t, &Table{Key: "fine", Columns: Cols("v"), Rows: [][]Value{{{Text: "text only", Num: f}}}})
	}
}

func FuzzWriteJSON(f *testing.F) {
	for i, s := range awkwardStrings {
		f.Add(s, awkwardFloats[i%len(awkwardFloats)], true, 2)
	}
	f.Add("x", math.NaN(), true, 1)
	f.Add("x", math.Inf(-1), false, 0)
	f.Fuzz(func(t *testing.T, s string, v float64, numeric bool, rows int) {
		tab := &Table{Key: s, ID: s, Title: s, Columns: []Column{{Name: s}, {Name: "u", Unit: s}}}
		if rows%3 == 0 {
			tab.Scale = s
		}
		for i := 0; i < rows%5; i++ {
			tab.AddRow(Value{Text: s, Num: v, Numeric: numeric}, Str(s), Raw(s, v*float64(i)))
		}
		checkJSON(t, tab)
	})
}

// TestWriteReportLeavesNoTruncatedFile pins the render-then-create order: a
// table that cannot be rendered returns an error, creates no file of its
// own, and leaves an earlier report's files as they were.
func TestWriteReportLeavesNoTruncatedFile(t *testing.T) {
	dir := t.TempDir()
	good := demoTable()
	if err := WriteReport(dir, []*Table{good}); err != nil {
		t.Fatal(err)
	}
	before := readDir(t, dir)

	bad := demoTable()
	bad.Rows[1][2] = Num(math.NaN())
	fresh := &Table{Key: "fresh", Columns: Cols("v"), Rows: [][]Value{{Num(math.Inf(1))}}}
	for _, tables := range [][]*Table{{fresh, good}, {bad}} {
		if err := WriteReport(dir, tables); err == nil {
			t.Fatal("WriteReport rendered a NaN/Inf cell without error")
		}
	}
	after := readDir(t, dir)
	if len(after) != len(before) {
		t.Errorf("a table that failed to render left files behind: %d files, want %d", len(after), len(before))
	}
	for _, name := range []string{"demo.json", "demo.csv", "demo.md", "index.md"} {
		if !bytes.Equal(after[name], before[name]) {
			t.Errorf("%s of the earlier report changed under a failed rewrite", name)
		}
	}
	if _, err := DecodeTable(after["demo.json"]); err != nil {
		t.Errorf("the earlier demo.json no longer decodes: %v", err)
	}
}

// TestWriteReportReplacesLongerFiles pins the in-place overwrite: a report
// regenerated with less in it leaves no tail of the longer files behind.
func TestWriteReportReplacesLongerFiles(t *testing.T) {
	dir, fresh := t.TempDir(), t.TempDir()
	long := demoTable()
	for i := 0; i < 50; i++ {
		long.AddRow(Str("padding"), Int(i), Num(1), Pct(1), Raw("x", 1), Str("PASS"))
	}
	for _, tables := range [][]*Table{{long, {Key: "extra"}}, {demoTable()}} {
		if err := WriteReport(dir, tables); err != nil {
			t.Fatal(err)
		}
	}
	if err := WriteReport(fresh, []*Table{demoTable()}); err != nil {
		t.Fatal(err)
	}
	got := readDir(t, dir)
	for name, want := range readDir(t, fresh) {
		if !bytes.Equal(got[name], want) {
			t.Errorf("%s rewritten over a longer file differs from a fresh one:\n%s", name, got[name])
		}
	}
}

func readDir(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}
