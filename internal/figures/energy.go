package figures

import (
	"upim/internal/artifact"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/prim"
)

// energyStudy reports the event-level energy breakdown of the whole suite
// at the baseline configuration (16 threads, 1 DPU, scratchpad): one row per
// benchmark with per-component energy in µJ, the total, the average power
// over the modeled end-to-end time, and the energy-delay product. The
// profile comes from Options.Profile (nil = the committed default); the
// tiny-scale reference artifact is generated under the default profile, so
// -check with a custom profile will (correctly) fail.
func energyStudy(o Options) ([]engine.Point, projection) {
	return grid(o, 16), func(results []*prim.Result) (*Table, error) {
		p := energy.ResolveProfile(o.Profile)
		colList := []artifact.Column{{Name: "benchmark"}}
		colList = append(colList, energy.BreakdownColumns()...)
		t := newTable("energy", "Energy", "energy breakdown per benchmark (16 threads, profile "+p.Name+")", o, colList...)
		for _, res := range results {
			row := []artifact.Value{artifact.Str(res.Benchmark)}
			row = energy.AppendBreakdownRow(row, res.Energy(p), res.Report.Total())
			t.AddRow(row...)
		}
		return t, nil
	}
}
