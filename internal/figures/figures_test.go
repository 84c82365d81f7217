package figures

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"upim/internal/explore"
	"upim/internal/prim"
)

// fast options: one cheap benchmark, tiny data.
func fastOpts() Options {
	return Options{Scale: prim.ScaleTiny, Benchmarks: []string{"VA"}}
}

// runOne regenerates one experiment's table, as RunExperimentContext does.
func runOne(id string, o Options) (*Table, error) {
	e, err := ByID(id)
	if err != nil {
		return nil, err
	}
	tables, err := Run(context.Background(), o, e)
	return tables[0], err
}

// TestRunDedupes pins what one Run saves on `figures -exp all -scale tiny`
// without simulating anything: the experiments declare 564 points, only 325
// of them distinct, and Run simulates each distinct point once.
func TestRunDedupes(t *testing.T) {
	o := Options{Scale: prim.ScaleTiny}
	declared, distinct := 0, map[string]bool{}
	for _, e := range Experiments() {
		pts, _ := e.Plan(o)
		declared += len(pts)
		for _, p := range pts {
			distinct[explore.KeyOf(p)] = true
		}
	}
	if declared != 564 || len(distinct) != 325 {
		t.Fatalf("experiments declare %d points, %d distinct; want 564 and 325", declared, len(distinct))
	}
}

// TestRunMatchesPerExperiment: every table of one Run over all experiments
// is byte-identical to the same experiment run alone, so sharing a point's
// result between projections changes nothing.
func TestRunMatchesPerExperiment(t *testing.T) {
	o := Options{Scale: prim.ScaleTiny, Benchmarks: []string{"VA", "BS"}}
	tables, err := Run(context.Background(), o, Experiments()...)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range Experiments() {
		alone, err := runOne(e.ID, o)
		if err != nil {
			t.Fatal(err)
		}
		var joint, single bytes.Buffer
		if err := tables[i].WriteJSON(&joint); err != nil {
			t.Fatal(err)
		}
		if err := alone.WriteJSON(&single); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(joint.Bytes(), single.Bytes()) {
			t.Errorf("%s: the table from one Run over all experiments differs from the experiment run alone", e.ID)
		}
	}
}

// TestRunFailsOnlyItsExperiment: a point that fails fails only the
// experiments that declared it. fig11 ignores the benchmark selection, so it
// still matches its reference; fig5 has no table and names itself in the
// error.
func TestRunFailsOnlyItsExperiment(t *testing.T) {
	fig11, err := ByID("fig11")
	if err != nil {
		t.Fatal(err)
	}
	fig5, err := ByID("fig5")
	if err != nil {
		t.Fatal(err)
	}
	tables, err := Run(context.Background(), Options{Scale: prim.ScaleTiny, Benchmarks: []string{"NOPE"}}, fig11, fig5)
	if err == nil || !strings.HasPrefix(err.Error(), "fig5:") || !errors.Is(err, prim.ErrUnknownBenchmark) {
		t.Fatalf("want a fig5: error matching prim.ErrUnknownBenchmark, got %v", err)
	}
	if tables[1] != nil {
		t.Error("the failed experiment must have no table")
	}
	if err := Check(tables[0], 1e-12); err != nil {
		t.Errorf("fig11 must still match its reference: %v", err)
	}
}

func TestEveryExperimentRuns(t *testing.T) {
	for _, e := range Experiments() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			t.Parallel()
			tab, err := runOne(e.ID, fastOpts())
			if err != nil {
				t.Fatal(err)
			}
			if tab == nil || len(tab.Columns) == 0 || len(tab.Rows) == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			if tab.Key != e.ID {
				t.Fatalf("%s: table key %q must match the experiment id", e.ID, tab.Key)
			}
			for _, row := range tab.Rows {
				if len(row) > len(tab.Columns) {
					t.Fatalf("%s: row wider than header: %v", e.ID, row)
				}
			}
		})
	}
}

// TestTable2ScaleOutOfRange: Table II at a Scale past paper is an error
// naming the three scales, not paper sizes stamped "scale?3".
func TestTable2ScaleOutOfRange(t *testing.T) {
	_, err := runOne("table2", Options{Scale: prim.Scale(3)})
	if err == nil || !strings.Contains(err.Error(), "want tiny, small or paper") {
		t.Fatalf("want an unknown-scale error, got %v", err)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("nope"); err == nil {
		t.Fatal("unknown id must error")
	}
}

// TestShapeInvariants pins the headline qualitative findings the paper's
// evaluation rests on, at tiny scale: BS is memory-bound while TS is
// compute-bound (Fig 5); HST-L is synchronization-dominated (Fig 9); the
// SIMT ladder orders Base < SIMT < SIMT+AC (Fig 11); and the ILP ladder
// speeds up a compute-bound workload monotonically (Fig 12).
func TestShapeInvariants(t *testing.T) {
	t.Run("fig5-bounds", func(t *testing.T) {
		t.Parallel()
		tab, err := runOne("fig5", Options{Scale: prim.ScaleTiny, Benchmarks: []string{"BS", "TS"}})
		if err != nil {
			t.Fatal(err)
		}
		vals := map[string][2]float64{}
		for _, row := range tab.Rows {
			if row[1].Text == "16" {
				vals[row[0].Text] = [2]float64{row[2].Num, row[3].Num}
			}
		}
		if vals["BS"][0] >= vals["BS"][1] {
			t.Errorf("BS should be memory-bound: compute %.3f vs memory %.3f", vals["BS"][0], vals["BS"][1])
		}
		if vals["TS"][0] <= vals["TS"][1] {
			t.Errorf("TS should be compute-bound: compute %.3f vs memory %.3f", vals["TS"][0], vals["TS"][1])
		}
	})
	t.Run("fig9-hstl-sync", func(t *testing.T) {
		t.Parallel()
		tab, err := runOne("fig9", Options{Scale: prim.ScaleTiny, Benchmarks: []string{"HST-L", "HST-S"}})
		if err != nil {
			t.Fatal(err)
		}
		var l, s float64
		for _, row := range tab.Rows {
			if row[0].Text == "HST-L" {
				l = row[6].Num
			}
			if row[0].Text == "HST-S" {
				s = row[6].Num
			}
		}
		if l < 0.30 {
			t.Errorf("HST-L sync fraction = %.1f%%, want contention-dominated", l*100)
		}
		if s >= l {
			t.Errorf("HST-S sync (%.1f%%) should be far below HST-L (%.1f%%)", s*100, l*100)
		}
	})
	t.Run("fig11-ladder", func(t *testing.T) {
		t.Parallel()
		tab, err := runOne("fig11", Options{Scale: prim.ScaleTiny})
		if err != nil {
			t.Fatal(err)
		}
		speedup := map[string]float64{}
		for _, row := range tab.Rows {
			speedup[row[0].Text] = row[5].Num
		}
		if !(speedup["SIMT"] > 1 && speedup["SIMT+AC"] > speedup["SIMT"] &&
			speedup["SIMT+AC+4x"] >= speedup["SIMT+AC"]) {
			t.Errorf("SIMT ladder out of order: %v", speedup)
		}
	})
	t.Run("fig12-ts-monotone", func(t *testing.T) {
		t.Parallel()
		tab, err := runOne("fig12", Options{Scale: prim.ScaleTiny, Benchmarks: []string{"TS"}})
		if err != nil {
			t.Fatal(err)
		}
		prev := 0.0
		for _, row := range tab.Rows {
			s := row[6].Num
			if s < prev*0.98 { // allow tiny noise
				t.Errorf("ILP ladder regressed at %s: %.2f after %.2f", row[1].Text, s, prev)
			}
			prev = s
		}
		if prev < 2 {
			t.Errorf("TS with D+R+S+F = %.2fx, want >= 2x (paper: avg 2.7x)", prev)
		}
	})
}

// TestPaperFigureNumberingComplete pins the 1:1 mapping between the paper's
// figure numbers and the experiment registry: every figure 5..16 resolves,
// with fig14 aliased onto the MMU case study.
func TestPaperFigureNumberingComplete(t *testing.T) {
	for i := 5; i <= 16; i++ {
		id := fmt.Sprintf("fig%d", i)
		e, err := ByID(id)
		if err != nil {
			t.Errorf("paper figure %s has no experiment: %v", id, err)
		}
		if i == 14 && e.ID != "mmu" {
			t.Errorf("fig14 resolved to %q, want the mmu case study", e.ID)
		}
	}
	if _, err := ByID("fig17"); err == nil {
		t.Error("fig17 resolved but the paper has no such figure")
	}
}
