package artifact

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// WriteReport writes a browsable report into dir: per-table CSV, JSON and
// Markdown files named by Table.Key, plus an index.md mapping each artifact
// to its paper figure/table number. The directory is created if needed;
// existing files are overwritten, so regenerating a report is idempotent.
// Every file is rendered into a buffer reused from table to table first and
// written with one call, so a table that fails to render leaves the previous report's file in
// place instead of a truncated one.
func WriteReport(dir string, tables []*Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact: creating report dir: %w", err)
	}
	var j, c []byte
	for _, t := range tables {
		path := filepath.Join(dir, fileKey(t.Key))
		// JSON and CSV come from one walk, and JSON is the one form that can
		// refuse a table (a NaN or Inf cell): it does so before any of the
		// table's files changes.
		var err error
		if j, c, err = t.appendJSONCSV(j[:0], c[:0]); err != nil {
			return fmt.Errorf("artifact: rendering %s.json: %w", path, err)
		}
		if err := writeFile(path+".json", j); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		if err := writeFile(path+".csv", c); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		j = t.appendMarkdown(j[:0])
		if err := writeFile(path+".md", j); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
	}
	return writeFile(filepath.Join(dir, "index.md"), appendIndex(j[:0], tables))
}

// appendIndex renders index.md: one row per table linking its files.
func appendIndex(b []byte, tables []*Table) []byte {
	b = append(b, "# uPIMulator-Go artifact report\n\n"+
		"Generated by `cmd/figures -out`. Each experiment links the paper\n"+
		"artifact it reproduces to its exported data files.\n\n"+
		"| experiment | paper artifact | scale | title | data |\n"+
		"|---|---|---|---|---|\n"...)
	for _, t := range tables {
		key := fileKey(t.Key)
		scale := t.Scale
		if scale == "" {
			scale = "-"
		}
		b = append(append(append(append(append(b, "| ["...), key...), "]("...), key...), ".md) | "...)
		b = append(appendMD(b, t.ID), " | "...)
		b = append(append(b, scale...), " | "...)
		b = append(appendMD(b, t.Title), " | [csv]("...)
		b = append(append(append(append(b, key...), ".csv) · [json]("...), key...), ".json) |\n"...)
	}
	return b
}

// writeFile makes data the contents of path: overwrite in place, then cut to
// length. A regenerated report rewrites the same names at mostly the same
// sizes, and truncating first would send every file through the filesystem's
// free-and-reallocate path — on ext4 some twenty times the cost of the write.
func writeFile(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(data); err == nil {
		err = f.Truncate(int64(len(data)))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// fileKey sanitizes a table key into a filename stem.
func fileKey(key string) string {
	if key == "" {
		return "table"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_':
			return r
		default:
			return '_'
		}
	}, key)
}
