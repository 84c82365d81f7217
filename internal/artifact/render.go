package artifact

import (
	"bytes"
	"io"
	"slices"
	"strings"
	"unicode"
	"unicode/utf8"
)

// Every renderer appends its whole output to a []byte and hands it to the
// writer in one Write: WriteReport renders all of a report's files into one
// reused buffer this way, and the CLI prints a table with one write, not one
// per line. Reports are compared byte for byte across runs and against
// committed references, so render_test.go holds each form to an oracle:
// encoding/csv, and string-building Markdown and console renderers.

// scratch returns the space a renderer appends into before its one Write: a
// *bytes.Buffer's free capacity, so that rendering into it copies nothing
// more, and nil otherwise.
func scratch(w io.Writer) []byte {
	if buf, ok := w.(*bytes.Buffer); ok {
		return buf.AvailableBuffer()
	}
	return nil
}

// Fprint renders the table as aligned console text — the CLI's view. Like
// fmt.Fprint's callers it has no use for a failed write to the console, so
// it returns none.
func (t *Table) Fprint(w io.Writer) {
	_, _ = w.Write(t.appendConsole(scratch(w)))
}

func (t *Table) appendConsole(b []byte) []byte {
	b = append(append(append(append(append(b, "== "...), t.ID...), ": "...), t.Title...), " ==\n"...)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c.Name)
		if c.Unit != "" {
			widths[i] += len(c.Unit) + len(" ()")
		}
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) {
				widths[i] = max(widths[i], len(c.Text))
			}
		}
	}
	line := 1 // a line is at most every cell at its width, a separator after each, and a newline
	for _, w := range widths {
		line += w + len("  ")
	}
	b = slices.Grow(b, line*(len(t.Rows)+1)+1)
	start := len(b)
	for i, c := range t.Columns {
		if i > 0 {
			b = append(b, "  "...)
		}
		n := len(b)
		b = c.appendLabel(b, appendString)
		b = pad(b, widths[i]-(len(b)-n))
	}
	b = endLine(b, start)
	for _, row := range t.Rows {
		start = len(b)
		for i, c := range row {
			if i > 0 {
				b = append(b, "  "...)
			}
			b = append(b, c.Text...)
			if i < len(widths) {
				b = pad(b, widths[i]-len(c.Text))
			}
		}
		b = endLine(b, start)
	}
	return append(b, '\n')
}

const spaces = "                                "

// pad appends n spaces.
func pad(b []byte, n int) []byte {
	for n > 0 {
		k := min(n, len(spaces))
		b = append(b, spaces[:k]...)
		n -= k
	}
	return b
}

// endLine ends the console line that starts at b[start], dropping its
// trailing spaces.
func endLine(b []byte, start int) []byte {
	end := len(b)
	for end > start && b[end-1] == ' ' {
		end--
	}
	return append(b[:end], '\n')
}

// WriteCSV renders the machine-readable CSV form: a header row of column
// labels, then one record per row with exact numbers for numeric cells.
func (t *Table) WriteCSV(w io.Writer) error {
	_, b, _ := t.appendJSONCSV(nil, scratch(w))
	_, err := w.Write(b)
	return err
}

// appendCSVField appends one field as encoding/csv does: quoted when it holds
// a comma, quote, CR or LF, starts with a Unicode space, or is the Postgres
// end-of-data marker `\.`; inside quotes a quote is doubled and line breaks
// stay as they are.
func appendCSVField(b []byte, s string) []byte {
	if !csvNeedsQuotes(s) {
		return append(b, s...)
	}
	b = append(b, '"')
	for {
		i := strings.IndexByte(s, '"')
		if i < 0 {
			return append(append(b, s...), '"')
		}
		b = append(append(b, s[:i+1]...), '"')
		s = s[i+1:]
	}
}

func csvNeedsQuotes(s string) bool {
	switch {
	case s == "":
		return false
	case s == `\.` || strings.ContainsAny(s, ",\"\r\n"):
		return true
	}
	r, _ := utf8.DecodeRuneInString(s)
	return unicode.IsSpace(r)
}

// WriteMarkdown renders a GitHub-flavoured pipe table under a heading.
func (t *Table) WriteMarkdown(w io.Writer) error {
	_, err := w.Write(t.appendMarkdown(scratch(w)))
	return err
}

func (t *Table) appendMarkdown(b []byte) []byte {
	b = append(append(append(b, "### "...), t.ID...), ": "...)
	b = append(appendMD(b, t.Title), "\n\n|"...)
	for _, c := range t.Columns {
		b = append(c.appendLabel(append(b, ' '), appendMD), " |"...)
	}
	b = append(b, "\n|"...)
	for range t.Columns {
		b = append(b, "---|"...)
	}
	b = append(b, '\n')
	for _, row := range t.Rows {
		b = append(b, '|')
		for _, c := range row {
			b = append(appendMD(append(b, ' '), c.Text), " |"...)
		}
		for i := len(row); i < len(t.Columns); i++ {
			b = append(b, " |"...)
		}
		b = append(b, '\n')
	}
	return b
}

// appendMD appends s with every pipe escaped, so it cannot end a table cell.
func appendMD(b []byte, s string) []byte {
	for {
		i := strings.IndexByte(s, '|')
		if i < 0 {
			return append(b, s...)
		}
		b = append(append(b, s[:i]...), '\\', '|')
		s = s[i+1:]
	}
}

func appendString(b []byte, s string) []byte { return append(b, s...) }
