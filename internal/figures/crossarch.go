package figures

import (
	"upim/internal/artifact"
	"upim/internal/engine"
	"upim/internal/explore"
	"upim/internal/machine"
	"upim/internal/prim"
)

// crossArchBenchmarks are the workloads the cross-architecture study runs:
// the dense streaming kernels every registered backend supports, so each
// row pair is a true head-to-head.
var crossArchBenchmarks = []string{"GEMV", "VA"}

// crossArch is the flagship pathfinding artifact the paper's title
// promises: the same workloads executed on the cycle-exact UPMEM DPU and
// on the HBM-PIM-style bank-level MAC backend, at one and two compute
// sites, scored on modeled time, energy (each architecture priced under
// its own committed TechProfile) and hardware cost — with the
// per-benchmark Pareto frontier marked. Its points are an internal/explore
// space's enumeration, so its rows are the same numbers `cmd/pathfind -axes
// "arch=upmem,hbm-pim;dpus=1,2"` produces.
func crossArch(o Options) ([]engine.Point, projection) {
	s := explore.NewSpace(crossArchBenchmarks,
		explore.Archs(machine.ArchUPMEM, machine.ArchHBMPIM),
		explore.DPUs(1, 2))
	s.Scale = o.Scale
	points, err := s.Points()
	pts := make([]engine.Point, len(points))
	for i, p := range points {
		pts[i] = p.EP
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		if err != nil {
			return nil, err
		}
		tab := newTable("crossarch", "CrossArch",
			"Cross-architecture Pareto: UPMEM DPU vs HBM-PIM bank-level MAC (time, energy, cost)", o,
			artifact.Column{Name: "benchmark"}, artifact.Column{Name: "arch"}, artifact.Column{Name: "sites"},
			artifact.Column{Name: "cost"}, col("kernel", "ms"), col("total", "ms"),
			col("energy", "uJ"), col("EDP", "uJ*ms"), artifact.Column{Name: "frontier"})
		goals := []explore.Goal{explore.GoalTime(), explore.GoalEnergy(nil), explore.GoalCost()}
		for _, bench := range crossArchBenchmarks {
			var group []explore.Outcome
			for i, p := range points {
				if p.Benchmark == bench {
					group = append(group, explore.Outcome{Point: p, Index: i, Result: results[i]})
				}
			}
			onFront := map[int]bool{}
			for _, f := range explore.Pareto(group, goals...) {
				onFront[f.Index] = true
			}
			for _, out := range group {
				total := out.Result.Report.Total()
				e := out.Result.Energy(nil)
				marker := ""
				if onFront[out.Index] {
					marker = "*"
				}
				tab.AddRow(
					artifact.Str(bench),
					artifact.Str(out.Point.Labels[0]),
					artifact.Int(out.Result.DPUs),
					artifact.Num(out.Point.Cost),
					artifact.Num(out.Result.Report.KernelSeconds*1e3),
					artifact.Num(total*1e3),
					artifact.Num(e.MicroJoules()),
					artifact.Num(e.EDPMicroJouleMS(total)),
					artifact.Str(marker),
				)
			}
		}
		return tab, nil
	}
}
