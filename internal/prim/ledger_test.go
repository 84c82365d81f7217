package prim

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"
	"testing"

	"upim/internal/config"
)

var update = flag.Bool("update", false, "rewrite the testdata golden of every golden test that runs (select one with -run)")

// TestTransferLedgerGolden pins what a host program is to the rest of the
// simulator: the exact sequence of transfers and launches it issues. Every
// benchmark × {scratchpad, cache} × {1, 3, 4} DPUs at tiny scale must
// reproduce the recorded byte volumes, the three transfer-phase times (by
// bit pattern — they are sums whose order is the flush order), the launch
// count and every aggregate statistics counter. The figure refdata covers
// only scratchpad transfers and Validation only instruction counts; this is
// the oracle for rewriting a host.
func TestTransferLedgerGolden(t *testing.T) {
	var out bytes.Buffer
	for _, b := range Benchmarks() {
		for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache} {
			for _, dpus := range []int{1, 3, 4} {
				cfg := config.Default()
				cfg.Mode = mode
				res, err := runPoint(b.Name, cfg, dpus, ScaleTiny)
				if err != nil {
					t.Fatalf("%s/%v/d%d: %v", b.Name, mode, dpus, err)
				}
				rep := res.Report
				fmt.Fprintf(&out, "%s %v d%d in=%d out=%d launches=%d kernel=%016x",
					b.Name, mode, dpus, rep.BytesIn, rep.BytesOut, rep.Launches,
					math.Float64bits(rep.KernelSeconds))
				for _, s := range rep.TransferSeconds {
					fmt.Fprintf(&out, " %016x", math.Float64bits(s))
				}
				// 'g' with precision -1 round-trips a float64 exactly.
				for _, c := range res.Stats.Counters() {
					fmt.Fprintf(&out, " %s=%s", c.Name, strconv.FormatFloat(c.Value, 'g', -1, 64))
				}
				out.WriteByte('\n')
			}
		}
	}
	checkGolden(t, "testdata/ledger.golden", out.Bytes())
}

// checkGolden compares got with the golden file line by line, or rewrites
// the file under -update.
func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(string(got), "\n")
	wantLines := strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("%s line %d drifted:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
}
