package upim

import (
	"upim/internal/artifact"
	"upim/internal/energy"
)

// Energy modeling — the event-level energy/power subsystem (internal/energy)
// as a public API. Every joule is a deterministic, linear function of a
// run's event counters under a TechProfile (per-event energies, JSON-
// loadable, with a committed default), so energy inherits the simulator's
// determinism and the pathfinding store's resume guarantees: results loaded
// back from a store yield bit-identical energy to the runs that produced
// them.

// TechProfile is the versioned per-event energy parameter set (picojoules
// per pipeline issue by mix class, RF/WRAM/IRAM access, link and host-
// channel bytes, DRAM activates/bursts/refreshes, cache array lookups, plus
// static leakage in mW).
type TechProfile = energy.TechProfile

// EnergyReport is one run's energy accounting: picojoules per component,
// with totals, average power and EDP derivations.
type EnergyReport = energy.Report

// LoadTechProfile reads a profile from a JSON file as a field-by-field
// override of the default: a user profile only names the parameters it
// changes. Unknown fields and format mismatches are errors.
func LoadTechProfile(path string) (*TechProfile, error) { return energy.LoadFile(path) }

// EnergyOf computes a verified run's energy under profile p (nil = the
// committed default): per-DPU kernel event energy — each DPU's leakage
// integrates its own cycles — plus host-channel transfer energy.
func EnergyOf(res *Result, p *TechProfile) EnergyReport { return res.Energy(p) }

// EnergyTable assembles per-benchmark energy breakdowns of suite/sweep
// results into an exportable artifact table (µJ per component, total,
// average power, EDP — the same shape as the figures "energy" experiment).
// Nil results (cancelled or failed points) are skipped.
func EnergyTable(title string, results []*Result, p *TechProfile) *ResultTable {
	p = energy.ResolveProfile(p)
	t := &ResultTable{Key: "energy", ID: "Energy", Title: title}
	t.Columns = append(t.Columns, artifact.Column{Name: "benchmark"}, artifact.Column{Name: "mode"},
		artifact.Column{Name: "tasklets"}, artifact.Column{Name: "DPUs"})
	t.Columns = append(t.Columns, energy.BreakdownColumns()...)
	for _, res := range results {
		if res == nil {
			continue
		}
		row := []artifact.Value{
			artifact.Str(res.Benchmark), artifact.Str(res.Mode.String()),
			artifact.Int(res.Tasklets), artifact.Int(res.DPUs),
		}
		row = append(row, energy.BreakdownRow(res.Energy(p), res.Report.Total())...)
		t.AddRow(row...)
	}
	return t
}
