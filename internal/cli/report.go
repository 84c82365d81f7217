package cli

import (
	"fmt"
	"os"
	"path/filepath"

	"upim/internal/artifact"
	"upim/internal/figures"
	"upim/internal/figures/refdata"
)

// Report carries the values of the four flags a table-emitting command ends
// on: -out, -writeref, -check and -eps.
type Report struct {
	Out      string  // directory for the browsable CSV+JSON+Markdown report
	WriteRef string  // directory to (re)write reference JSON into
	Check    bool    // validate against the embedded references
	Eps      float64 // relative tolerance for Check (<= 0 = the default)
}

// Finish runs the tail in its fixed order — export, write references, check
// — narrating on stderr under the command's name, and returns the exit code:
// 1 when a write fails or any table deviates from its reference, else 0.
func (r Report) Finish(cmd string, tables []*artifact.Table) int {
	fail := func(err error) int {
		fmt.Fprintf(os.Stderr, "%s: %v\n", cmd, err)
		return 1
	}
	if r.Out != "" {
		if err := artifact.WriteReport(r.Out, tables); err != nil {
			return fail(err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d artifacts + index.md to %s\n", cmd, len(tables), r.Out)
	}
	if r.WriteRef != "" {
		if err := os.MkdirAll(r.WriteRef, 0o755); err != nil {
			return fail(err)
		}
		for _, tab := range tables {
			f, err := os.Create(filepath.Join(r.WriteRef, refdata.FileName(tab.Key, tab.Scale)))
			if err == nil {
				err = tab.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				return fail(err)
			}
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d reference artifacts to %s\n", cmd, len(tables), r.WriteRef)
	}
	if r.Check {
		failed := 0
		for _, tab := range tables {
			if err := figures.Check(tab, r.Eps); err != nil {
				fmt.Fprintf(os.Stderr, "%s: check FAILED: %v\n", cmd, err)
				failed++
			}
		}
		if failed > 0 {
			fmt.Fprintf(os.Stderr, "%s: %d/%d artifacts deviate from the reference\n", cmd, failed, len(tables))
			return 1
		}
		fmt.Fprintf(os.Stderr, "%s: all %d artifacts match the reference\n", cmd, len(tables))
	}
	return 0
}
