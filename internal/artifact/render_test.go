package artifact

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// The renderers the appenders replaced, kept as the definition of their
// output: encoding/csv for CSV, and the string-building Markdown and console
// renderers. Every committed report was written by them, and reports are
// compared byte for byte across runs and against the past.

func oracleCSV(t *Table) ([]byte, error) {
	var b bytes.Buffer
	cw := csv.NewWriter(&b)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = oracleLabel(c)
	}
	if err := cw.Write(header); err != nil {
		return nil, err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = c.Text
			if c.Numeric {
				rec[i] = strconv.FormatFloat(c.Num, 'g', -1, 64)
			}
		}
		if err := cw.Write(rec); err != nil {
			return nil, err
		}
	}
	cw.Flush()
	return b.Bytes(), cw.Error()
}

func oracleMarkdown(t *Table) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s: %s\n\n", t.ID, oracleMDEscape(t.Title))
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + oracleMDEscape(oracleLabel(c)) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, c := range row {
			b.WriteString(" " + oracleMDEscape(c.Text) + " |")
		}
		for i := len(row); i < len(t.Columns); i++ {
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	return []byte(b.String())
}

func oracleFprint(t *Table) []byte {
	var w bytes.Buffer
	fmt.Fprintf(&w, "== %s: %s ==\n", t.ID, t.Title)
	header := make([]string, len(t.Columns))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = oracleLabel(c)
		widths[i] = len(header[i])
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c.Text) > widths[i] {
				widths[i] = len(c.Text)
			}
		}
	}
	line := func(cells []string) {
		var b strings.Builder
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			if i < len(widths) {
				b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
			}
		}
		fmt.Fprintln(&w, strings.TrimRight(b.String(), " "))
	}
	line(header)
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.Text
		}
		line(texts)
	}
	fmt.Fprintln(&w)
	return w.Bytes()
}

func oracleLabel(c Column) string {
	if c.Unit == "" {
		return c.Name
	}
	return fmt.Sprintf("%s (%s)", c.Name, c.Unit)
}

func oracleMDEscape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }

// checkRenderers holds every appender to its oracle on one table, through a
// *bytes.Buffer and through a plain writer.
func checkRenderers(t *testing.T, tab *Table) {
	t.Helper()
	wantCSV, err := oracleCSV(tab)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []struct {
		name   string
		render func(io.Writer) error
		want   []byte
	}{
		{"csv", tab.WriteCSV, wantCSV},
		{"markdown", tab.WriteMarkdown, oracleMarkdown(tab)},
		{"console", func(w io.Writer) error { tab.Fprint(w); return nil }, oracleFprint(tab)},
	} {
		for _, w := range []interface {
			io.Writer
			Bytes() []byte
		}{new(bytes.Buffer), new(plainWriter)} {
			if err := r.render(w); err != nil {
				t.Fatalf("%s: %v", r.name, err)
			}
			if !bytes.Equal(w.Bytes(), r.want) {
				t.Fatalf("%s differs from its oracle (table %+v):\n--- got ---\n%q\n--- want ---\n%q", r.name, tab, w.Bytes(), r.want)
			}
		}
	}
}

// awkwardCSV are the fields encoding/csv has a rule for: separators, quotes,
// line breaks, a leading space of any kind, the Postgres end-of-data marker,
// empty fields and bytes that are not UTF-8.
var awkwardCSV = []string{
	"", "plain", "a,b", `say "hi"`, `"`, "\r", "\n", "cr\rlf\r\n", " lead", "\tlead", " lead", " lead",
	"trail ", `\.`, `\.x`, `x\.`, "\xff", "\xff,", " \xff", "|pipe|", "café,世界",
}

func TestWriteCSVMatchesEncodingCSV(t *testing.T) {
	checkRenderers(t, demoTable())
	checkRenderers(t, &Table{})
	checkRenderers(t, &Table{Key: "k", Columns: []Column{}, Rows: [][]Value{}})
	for _, s := range awkwardCSV {
		checkRenderers(t, &Table{
			Key: s, ID: s, Title: s,
			Columns: []Column{{Name: s}, {Name: s, Unit: s}},
			Rows:    [][]Value{{Str(s), Raw(s, 1)}, {Str(s)}, nil, {Str(s), Str(s), Str(s)}},
		})
	}
	for _, f := range append(awkwardFloats, math.NaN(), math.Inf(1), math.Inf(-1), 9.995, 99.995, -0.005) {
		checkRenderers(t, &Table{Key: "f", Columns: Cols("v", "w", "x"), Rows: [][]Value{{Num(f), Raw("raw", f), Pct(f)}}})
	}
}

func FuzzWriteCSV(f *testing.F) {
	for i, s := range awkwardCSV {
		f.Add(s, s[len(s)/2:], awkwardFloats[i%len(awkwardFloats)], i%2 == 0, i)
	}
	f.Add("x", "", math.NaN(), true, 3)
	f.Add(",", "\"", math.Inf(-1), false, 7)
	f.Fuzz(func(t *testing.T, s, u string, v float64, numeric bool, shape int) {
		tab := &Table{Key: s, ID: u, Title: s, Columns: []Column{{Name: s}, {Name: u, Unit: s}}}
		for i := 0; i < shape%5; i++ {
			row := []Value{{Text: s, Num: v, Numeric: numeric}, Str(u), Raw(u, v*float64(i))}
			tab.AddRow(row[:(shape/5+i)%4]...) // ragged: 0 to 3 cells under 2 columns
		}
		checkRenderers(t, tab)
	})
}

// TestRenderersMatchOracles runs the three appenders against their oracles
// over seeded random tables: ragged rows, every cell kind, and text drawn
// from the awkward strings of both the CSV and the JSON rules.
func TestRenderersMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	texts := append(append([]string{}, awkwardCSV...), awkwardStrings...)
	text := func() string { return texts[rng.Intn(len(texts))] }
	number := func() float64 {
		if rng.Intn(4) == 0 {
			return awkwardFloats[rng.Intn(len(awkwardFloats))]
		}
		return math.Float64frombits(rng.Uint64())
	}
	for i := 0; i < 500; i++ {
		tab := &Table{Key: text(), ID: text(), Title: text()}
		for c := rng.Intn(6); c > 0; c-- {
			col := Column{Name: text()}
			if rng.Intn(2) == 0 {
				col.Unit = text()
			}
			tab.Columns = append(tab.Columns, col)
		}
		for r := rng.Intn(8); r > 0; r-- {
			var row []Value
			for c := rng.Intn(len(tab.Columns) + 3); c > 0; c-- {
				switch rng.Intn(5) {
				case 0:
					row = append(row, Str(text()))
				case 1:
					row = append(row, Num(number()))
				case 2:
					row = append(row, Pct(number()))
				case 3:
					row = append(row, Int(rng.Int63()-rng.Int63()))
				default:
					row = append(row, Raw(text(), number()))
				}
			}
			tab.AddRow(row...)
		}
		checkRenderers(t, tab)
	}
}
