package artifact

import (
	"fmt"
	"math"
	"strings"
)

// maxDiffs bounds how many cell mismatches a Compare error reports.
const maxDiffs = 8

// Compare checks got against the reference table want. Shapes must match
// exactly (columns by name, row count); string cells must be equal; numeric
// cells must agree within a relative epsilon:
//
//	|got - want| <= eps * max(|got|, |want|) + 1e-12
//
// The absolute floor forgives denormal noise around zero. A nil error means
// the tables agree everywhere.
func Compare(got, want *Table, eps float64) error {
	var diffs []string
	add := func(format string, args ...any) {
		if len(diffs) < maxDiffs {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		} else if len(diffs) == maxDiffs {
			diffs = append(diffs, "...")
		}
	}
	if len(got.Columns) != len(want.Columns) {
		add("column count %d, reference has %d", len(got.Columns), len(want.Columns))
	} else {
		for i := range got.Columns {
			if got.Columns[i] != want.Columns[i] {
				add("column %d is %q, reference has %q", i, got.Columns[i].Label(), want.Columns[i].Label())
			}
		}
	}
	if len(got.Rows) != len(want.Rows) {
		add("row count %d, reference has %d", len(got.Rows), len(want.Rows))
	}
	for r := 0; r < min(len(got.Rows), len(want.Rows)); r++ {
		g, w := got.Rows[r], want.Rows[r]
		if len(g) != len(w) {
			add("row %d (%s): width %d, reference has %d", r, rowLabel(g), len(g), len(w))
			continue
		}
		for c := range g {
			col := fmt.Sprintf("col %d", c)
			if c < len(want.Columns) {
				col = want.Columns[c].Label()
			}
			switch {
			case g[c].Numeric != w[c].Numeric:
				add("row %d (%s) %s: %q vs reference %q (numeric/text kind changed)",
					r, rowLabel(g), col, g[c].Text, w[c].Text)
			case g[c].Numeric:
				if !numEqual(g[c].Num, w[c].Num, eps) {
					add("row %d (%s) %s: %v vs reference %v (beyond eps %g)",
						r, rowLabel(g), col, g[c].Num, w[c].Num, eps)
				}
			case g[c].Text != w[c].Text:
				add("row %d (%s) %s: %q vs reference %q", r, rowLabel(g), col, g[c].Text, w[c].Text)
			}
		}
	}
	if len(diffs) == 0 {
		return nil
	}
	return fmt.Errorf("artifact: %s (%s) deviates from reference:\n  %s",
		got.Key, got.ID, strings.Join(diffs, "\n  "))
}

// numEqual reports whether two numeric cells agree within eps. NaN never
// equals a number — a value degrading to NaN must fail the check — and
// references cannot contain NaN (JSON rejects it), so NaN==NaN only arises
// in direct library use and is treated as agreement.
func numEqual(a, b, eps float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return math.Abs(a-b) <= float64(eps*math.Max(math.Abs(a), math.Abs(b)))+1e-12
}

// rowLabel names a row by its leading cell for readable diff messages.
func rowLabel(row []Value) string {
	if len(row) == 0 {
		return "?"
	}
	return row[0].Text
}
