package artifact

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Fprint renders the table as aligned console text — the CLI's view.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	header := make([]string, len(t.Columns))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Label()
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
		fmt.Fprintln(w, strings.TrimRight(b.String(), " "))
	}
	line(header)
	for _, row := range t.Rows {
		texts := make([]string, len(row))
		for i, c := range row {
			texts[i] = c.Text
		}
		line(texts)
	}
	fmt.Fprintln(w)
}

// WriteCSV renders the machine-readable CSV form: a header row of column
// labels, then one record per row with exact numbers for numeric cells.
func (t *Table) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := make([]string, len(t.Columns))
	for i, c := range t.Columns {
		header[i] = c.Label()
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, row := range t.Rows {
		rec := make([]string, len(row))
		for i, c := range row {
			rec[i] = c.csv()
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteMarkdown renders a GitHub-flavoured pipe table under a heading.
func (t *Table) WriteMarkdown(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "### %s: %s\n\n", t.ID, mdEscape(t.Title)); err != nil {
		return err
	}
	var b strings.Builder
	b.WriteString("|")
	for _, c := range t.Columns {
		b.WriteString(" " + mdEscape(c.Label()) + " |")
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, c := range row {
			b.WriteString(" " + mdEscape(c.Text) + " |")
		}
		for i := len(row); i < len(t.Columns); i++ {
			b.WriteString(" |")
		}
		b.WriteString("\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func mdEscape(s string) string { return strings.ReplaceAll(s, "|", "\\|") }
