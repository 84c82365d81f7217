package figures

import (
	"strings"
	"testing"

	"upim/internal/artifact"
	"upim/internal/energy"
	"upim/internal/figures/refdata"
	"upim/internal/prim"
)

// TestCheckAgainstReference regenerates the cheapest simulated experiment
// (fig11: five GEMV points) with default options and validates it against
// the committed reference, then perturbs one numeric cell and requires the
// check to fail — the end-to-end path behind `cmd/figures -check`.
func TestCheckAgainstReference(t *testing.T) {
	tab, err := runOne("fig11", Options{Scale: prim.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tab, 0); err != nil {
		t.Fatalf("pristine fig11 must match its reference: %v", err)
	}

	tab.Rows[1][1].Num *= 1.25 // shift the SIMT IPC by 25%
	err = Check(tab, 0)
	if err == nil {
		t.Fatal("perturbed stat must fail the check")
	}
	if !strings.Contains(err.Error(), "IPC") {
		t.Errorf("diff should name the deviating column: %v", err)
	}
	if Check(tab, 0.5) != nil {
		t.Error("a generous epsilon must absorb the perturbation")
	}
}

// TestEnergyGoldenEps1e12 regenerates the energy experiment at tiny scale
// and validates it against its committed reference at 1e-12 relative — the
// energy model is a pure function of deterministic counters, so it is held
// to the same exactness bar as the timing refdata.
func TestEnergyGoldenEps1e12(t *testing.T) {
	tab, err := runOne("energy", Options{Scale: prim.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tab, 1e-12); err != nil {
		t.Fatalf("energy table deviates from its reference at eps 1e-12: %v", err)
	}
	// A profile override must shift the table and fail the default-profile
	// reference — proving -check catches profile drift, not just code drift.
	p := energy.Default()
	p.LeakageMW *= 2
	shifted, err := runOne("energy", Options{Scale: prim.ScaleTiny, Profile: p})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(shifted, 1e-12); err == nil {
		t.Fatal("doubled leakage must not match the default-profile reference")
	}
}

// TestCheckConfigTables validates the simulation-free tables, including a
// textual perturbation (epsilon must not forgive changed strings).
func TestCheckConfigTables(t *testing.T) {
	tab, err := runOne("table1", Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := Check(tab, 0); err != nil {
		t.Fatalf("table1 must match its reference: %v", err)
	}
	tab.Rows[0][1] = artifact.Str("9999 MHz")
	if Check(tab, 0.5) == nil {
		t.Fatal("changed config text must fail the check regardless of epsilon")
	}
}

func TestCheckMissingReference(t *testing.T) {
	tab, err := runOne("table2", Options{Scale: prim.ScalePaper})
	if err != nil {
		t.Fatal(err)
	}
	err = Check(tab, 0)
	if err == nil || !strings.Contains(err.Error(), "no reference data") {
		t.Fatalf("paper-scale table2 has no committed reference: %v", err)
	}
}

// TestReferenceDataCoversExperiments ensures every registered experiment has
// a committed tiny-scale reference, so `-exp all -scale tiny -check` covers
// the full suite.
func TestReferenceDataCoversExperiments(t *testing.T) {
	for _, e := range Experiments() {
		found := false
		for _, scale := range []string{"tiny", ""} {
			_, ok, err := refdata.Load(e.ID, scale)
			if err != nil {
				t.Errorf("%s: %v", e.ID, err)
			}
			found = found || ok
		}
		if !found {
			t.Errorf("%s: no committed reference artifact", e.ID)
		}
	}
}
