// Package artifact defines the typed, persistent experiment outputs the
// simulator's characterization pipeline emits — the machine-readable
// counterpart of the paper's figures and tables. Every experiment produces a
// Table: a grid of typed cells (numeric values that keep their display
// formatting, or plain strings) under unit-annotated columns. Tables render
// to CSV and JSON for downstream tooling, to Markdown for browsable reports,
// and to aligned console text for the CLI.
//
// Because cells carry their numeric value separately from their display
// text, tables can be diffed numerically: Compare checks two tables
// cell-by-cell under a relative epsilon, which is how the embedded
// tiny-scale reference results (internal/figures/refdata) turn the whole
// figure suite into a regression oracle for `cmd/figures -check`.
package artifact

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Column describes one table column: a name plus an optional unit ("ms",
// "KB", "threads") used by renderers.
type Column struct {
	Name string `json:"name"`
	Unit string `json:"unit,omitempty"`
}

// Label renders the column for human-facing output: "kernel (ms)".
func (c Column) Label() string {
	if c.Unit == "" {
		return c.Name
	}
	return c.Name + " (" + c.Unit + ")"
}

// appendLabel appends Label's text with esc applied to the name and the unit.
func (c Column) appendLabel(b []byte, esc func([]byte, string) []byte) []byte {
	b = esc(b, c.Name)
	if c.Unit == "" {
		return b
	}
	return append(esc(append(b, " ("...), c.Unit), ')')
}

// Cols builds unit-less columns from names.
func Cols(names ...string) []Column {
	out := make([]Column, len(names))
	for i, n := range names {
		out[i] = Column{Name: n}
	}
	return out
}

// Value is one table cell: either a number that remembers both its exact
// value and its display formatting, or a plain string.
type Value struct {
	// Text is the display form ("12.3%", "3.14", "PASS").
	Text string
	// Num is the exact numeric value (fractions for percentages, raw
	// quantities for scaled displays). Only meaningful when Numeric is set.
	Num float64
	// Numeric marks the cell as carrying a comparable number.
	Numeric bool
}

// Str makes a plain string cell.
func Str(s string) Value { return Value{Text: s} }

// Int makes an integer cell.
func Int[T ~int | ~int64 | ~uint64 | ~uint32 | ~uint](n T) Value {
	var text string
	if n < 0 {
		text = strconv.FormatInt(int64(n), 10)
	} else {
		text = strconv.FormatUint(uint64(n), 10)
	}
	return Value{Text: text, Num: float64(n), Numeric: true}
}

// Num makes a float cell with the tables' standard precision: whole numbers
// above 100, one decimal above 10, two below.
func Num(v float64) Value {
	var text string
	switch {
	case v == 0:
		text = "0"
	case v >= 100:
		text = decimal(v, 0, "")
	case v >= 10:
		text = decimal(v, 1, "")
	default:
		text = decimal(v, 2, "")
	}
	return Value{Text: text, Num: v, Numeric: true}
}

// decimal spells v with prec decimals and a suffix, as fmt's %.<prec>f does,
// into a stack buffer: the text string is the only allocation.
func decimal(v float64, prec int, suffix string) string {
	var buf [32]byte
	return string(append(strconv.AppendFloat(buf[:0], v, 'f', prec, 64), suffix...))
}

// Pct makes a percentage cell from a fraction: Pct(0.123) displays "12.3%"
// and compares as 0.123.
func Pct(v float64) Value {
	return Value{Text: decimal(v*100, 1, "%"), Num: v, Numeric: true}
}

// Raw makes a numeric cell with custom display text, e.g.
// Raw(fmt.Sprintf("%.0fK", bytes/1024), bytes).
func Raw(text string, v float64) Value {
	return Value{Text: text, Num: v, Numeric: true}
}

// String returns the display text.
func (v Value) String() string { return v.Text }

// jsonValue is the object form a numeric cell marshals to.
type jsonValue struct {
	V    float64 `json:"v"`
	Text string  `json:"text"`
}

// MarshalJSON encodes string cells as JSON strings and numeric cells as
// {"v": <number>, "text": <display>} so consumers get exact values without
// parsing display formatting.
func (v Value) MarshalJSON() ([]byte, error) {
	if !v.Numeric {
		return json.Marshal(v.Text)
	}
	return json.Marshal(jsonValue{V: v.Num, Text: v.Text})
}

// UnmarshalJSON decodes either encoding produced by MarshalJSON.
func (v *Value) UnmarshalJSON(data []byte) error {
	if len(data) > 0 && data[0] == '"' {
		var s string
		if err := json.Unmarshal(data, &s); err != nil {
			return err
		}
		*v = Str(s)
		return nil
	}
	var jv jsonValue
	if err := json.Unmarshal(data, &jv); err != nil {
		return err
	}
	*v = Value{Text: jv.Text, Num: jv.V, Numeric: true}
	return nil
}

// Table is one experiment's result grid.
type Table struct {
	// Key is the machine identifier used for filenames and reference-data
	// lookup ("fig5", "table1", "mmu").
	Key string `json:"key"`
	// ID is the paper's artifact label ("Figure 5", "Table I").
	ID    string `json:"id"`
	Title string `json:"title"`
	// Scale records the dataset scale the table was generated at ("tiny",
	// "small", "paper"); empty for scale-independent tables.
	Scale   string    `json:"scale,omitempty"`
	Columns []Column  `json:"columns"`
	Rows    [][]Value `json:"rows"`
}

// AddRow appends one row of cells.
func (t *Table) AddRow(cells ...Value) { t.Rows = append(t.Rows, cells) }

// AddStrings appends one row of plain string cells (configuration tables).
func (t *Table) AddStrings(cells ...string) {
	row := make([]Value, len(cells))
	for i, c := range cells {
		row[i] = Str(c)
	}
	t.Rows = append(t.Rows, row)
}

// Cell returns the cell at (row, column name), or a zero Value when the row
// is short or the column unknown.
func (t *Table) Cell(row int, col string) Value {
	if row < 0 || row >= len(t.Rows) {
		return Value{}
	}
	for i, c := range t.Columns {
		if c.Name == col && i < len(t.Rows[row]) {
			return t.Rows[row][i]
		}
	}
	return Value{}
}

// DecodeTable reads a Table from its JSON encoding.
func DecodeTable(data []byte) (*Table, error) {
	var t Table
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("artifact: decoding table: %w", err)
	}
	return &t, nil
}
