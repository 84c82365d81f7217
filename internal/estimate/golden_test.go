package estimate_test

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"

	"upim/internal/energy"
	"upim/internal/estimate"
	"upim/internal/explore"
	"upim/internal/prim"
)

var update = flag.Bool("update", false, "rewrite testdata/estimates.golden")

// goldenAxes is the two-tier exploration space the repo benchmark's
// tiered_triage workload triages (all 16 benchmarks, 512 points at tiny).
const goldenAxes = "tasklets=1,16;freq=350,700;link=1,4;ilp=base,DRSF;mode=scratchpad,cache"

// TestEstimatesGolden pins every estimate of the tiered exploration space
// bit for bit under the committed calibration and energy profile: kernel
// cycles, transfer and total seconds and each energy component, as float64
// bit patterns. A change to how the estimator obtains or reads its anchor
// runs must leave this file byte-identical; a model change rewrites it with
// -update and says why.
func TestEstimatesGolden(t *testing.T) {
	axes, err := explore.ParseAxes(goldenAxes)
	if err != nil {
		t.Fatal(err)
	}
	var benches []string
	for _, b := range prim.Benchmarks() {
		benches = append(benches, b.Name)
	}
	space := explore.NewSpace(benches, axes...)
	space.Scale = prim.ScaleTiny
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 512 {
		t.Fatalf("space has %d points, want 512", len(pts))
	}
	est, err := estimate.New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, p := range pts {
		fmt.Fprintf(&buf, "%s %s:", p.Benchmark, p.Design)
		e, err := est.Estimate(p.EP)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []float64{e.KernelCycles, e.TransferSeconds, e.TotalSeconds} {
			fmt.Fprintf(&buf, " %016x", math.Float64bits(v))
		}
		for c := range energy.NumComponents {
			fmt.Fprintf(&buf, " %016x", math.Float64bits(e.Energy.PJ[c]))
		}
		buf.WriteByte('\n')
	}

	path := filepath.Join("testdata", "estimates.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		got := bytes.Split(buf.Bytes(), []byte("\n"))
		for i, line := range bytes.Split(want, []byte("\n")) {
			if i >= len(got) || !bytes.Equal(got[i], line) {
				t.Fatalf("estimates drift from %s at line %d:\n got %s\nwant %s", path, i+1, got[min(i, len(got)-1)], line)
			}
		}
		t.Fatalf("estimates drift from %s (%d vs %d bytes)", path, buf.Len(), len(want))
	}
}
