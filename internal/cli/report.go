package cli

import (
	"flag"
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

// Register declares the four flags on fs.
func (r *Report) Register(fs *flag.FlagSet) {
	fs.StringVar(&r.Out, "out", "", "write a browsable report (CSV+JSON+Markdown+index.md) into this directory")
	fs.StringVar(&r.WriteRef, "writeref", "", "write reference JSON artifacts into this directory (maintainers only)")
	fs.BoolVar(&r.Check, "check", false, "validate results against the committed reference artifacts")
	fs.Float64Var(&r.Eps, "eps", 0, "relative tolerance for -check (0 = the 1% default)")
}

// Validate rejects, before anything is simulated, a tolerance that no check
// would read.
func (r Report) Validate() error {
	if r.Eps != 0 && !r.Check {
		return Usagef("-eps sets the -check tolerance; add -check to use it")
	}
	return nil
}

// Finish runs the tail in its fixed order — export, write references, check
// — narrating progress on stderr under the command's name. A failed write is
// returned; tables deviating from their references are listed here and
// returned as ErrReported.
func (r Report) Finish(cmd string, tables []*artifact.Table) error {
	if r.Out != "" {
		if err := artifact.WriteReport(r.Out, tables); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %d artifacts + index.md to %s\n", cmd, len(tables), r.Out)
	}
	if r.WriteRef != "" {
		if err := os.MkdirAll(r.WriteRef, 0o755); err != nil {
			return err
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
				return err
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
			return ErrReported
		}
		fmt.Fprintf(os.Stderr, "%s: all %d artifacts match the reference\n", cmd, len(tables))
	}
	return nil
}
