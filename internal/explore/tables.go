package explore

import (
	"slices"

	"upim/internal/artifact"
	"upim/internal/energy"
)

// Artifact tables. Every table is a pure, deterministic function of the
// exploration's points and results, and cached results round-trip through
// the store losslessly (JSON preserves float64 exactly), so an exploration
// resumed from a partially-filled store emits byte-identical artifacts to an
// uninterrupted run — the property the resume tests pin down. Cache/store
// counters are deliberately kept out of the tables for the same reason.

// SummaryTable renders every point of the exploration in point order: one
// column per axis, the design cost, the phase-bucketed times, and headline
// stats. Failed or skipped points keep their row with a status message.
func (x *Exploration) SummaryTable() *artifact.Table {
	t := x.newTable("pathfind-summary", "Pathfinding", "design-space exploration summary")
	t.Columns = append(t.Columns, artifact.Column{Name: "benchmark"})
	for _, a := range x.Space.Axes {
		t.Columns = append(t.Columns, artifact.Column{Name: a.Name})
	}
	t.Columns = append(t.Columns,
		artifact.Column{Name: "cost"},
		artifact.Column{Name: "kernel", Unit: "ms"},
		artifact.Column{Name: "transfer", Unit: "ms"},
		artifact.Column{Name: "total", Unit: "ms"},
		artifact.Column{Name: "IPC"},
		artifact.Column{Name: "instructions"},
		artifact.Column{Name: "fidelity"},
		artifact.Column{Name: "status"},
	)
	for _, o := range x.Outcomes {
		row := make([]artifact.Value, 0, len(t.Columns))
		row = append(row, artifact.Str(o.Point.Benchmark))
		for _, l := range o.Point.Labels {
			row = append(row, artifact.Str(l))
		}
		row = append(row, artifact.Num(o.Point.Cost))
		switch {
		case o.Result != nil:
			rep := o.Result.Report
			transfer := rep.Total() - rep.KernelSeconds
			row = append(row,
				artifact.Num(rep.KernelSeconds*1e3),
				artifact.Num(transfer*1e3),
				artifact.Num(rep.Total()*1e3),
				artifact.Num(o.Result.Stats.IPC()),
				artifact.Int(o.Result.Stats.Instructions),
			)
		case o.Fidelity == FidelityEstimate && o.Estimate != nil:
			// A tier-A row: modeled times only; the per-instruction counters
			// exist solely in cycle-exact results, so those cells stay empty.
			row = append(row,
				artifact.Num(o.Estimate.KernelSeconds*1e3),
				artifact.Num(o.Estimate.TransferSeconds*1e3),
				artifact.Num(o.Estimate.TotalSeconds*1e3),
				artifact.Str("-"),
				artifact.Str("-"),
			)
		default:
			for i := 0; i < 5; i++ {
				row = append(row, artifact.Str("-"))
			}
		}
		if o.Fidelity != "" {
			row = append(row, artifact.Str(o.Fidelity))
		} else {
			row = append(row, artifact.Str("-"))
		}
		// Err wins over Result: a point that simulated but failed to persist
		// is a failure, not an "ok" row.
		switch {
		case o.Err != nil:
			row = append(row, artifact.Str("FAIL: "+o.Err.Error()))
		case o.Fidelity == FidelityEstimate:
			row = append(row, artifact.Str("estimated"))
		case o.Result == nil:
			row = append(row, artifact.Str("SKIP"))
		default:
			row = append(row, artifact.Str("ok"))
		}
		t.AddRow(row...)
	}
	return t
}

// ParetoTable extracts the per-benchmark Pareto frontier under the goals
// (default: total time vs hardware cost). Frontier rows are ordered by cost
// then time, and each carries its speedup over the benchmark's reference
// point — the first successful point in space order, i.e. the all-baseline
// design when it is feasible.
func (x *Exploration) ParetoTable(goals ...Goal) *artifact.Table {
	if len(goals) == 0 {
		goals = []Goal{GoalTime(), GoalCost()}
	}
	t := x.newTable("pathfind-pareto", "Pathfinding (Pareto)", "per-benchmark Pareto frontier: "+goalNames(goals))
	t.Columns = append(t.Columns, artifact.Column{Name: "benchmark"}, artifact.Column{Name: "design"})
	for _, g := range goals {
		t.Columns = append(t.Columns, artifact.Column{Name: g.Name, Unit: g.Unit})
	}
	t.Columns = append(t.Columns, artifact.Column{Name: "speedup vs base"})
	for i, group := range x.benchGroups() {
		bench := x.benchOrder()[i]
		base := baseTime(group)
		front := frontier(group, goals)
		slices.SortStableFunc(front, func(a, b *Outcome) int {
			if a.Point.Cost != b.Point.Cost {
				return cmpFloat(a.Point.Cost, b.Point.Cost)
			}
			return cmpFloat(a.Result.Report.Total(), b.Result.Report.Total())
		})
		for _, o := range front {
			row := make([]artifact.Value, 0, len(t.Columns))
			row = append(row, artifact.Str(bench), artifact.Str(o.Point.Design))
			for _, g := range goals {
				row = append(row, artifact.Num(g.Value(*o)))
			}
			row = append(row, artifact.Num(base/o.Result.Report.Total()))
			t.AddRow(row...)
		}
	}
	return t
}

// BestTable ranks each benchmark's top-k fastest designs by modeled total
// time, with speedups over the benchmark's reference point.
func (x *Exploration) BestTable(k int) *artifact.Table {
	if k < 1 {
		k = 1
	}
	t := x.newTable("pathfind-best", "Pathfinding (best)", "fastest designs per benchmark")
	t.Columns = artifact.Cols("benchmark", "rank", "design", "cost")
	t.Columns = append(t.Columns,
		artifact.Column{Name: "total", Unit: "ms"},
		artifact.Column{Name: "speedup vs base"},
	)
	for i, group := range x.benchGroups() {
		bench := x.benchOrder()[i]
		ok := succeeded(group)
		base := baseTime(group)
		slices.SortStableFunc(ok, func(a, b *Outcome) int {
			return cmpFloat(a.Result.Report.Total(), b.Result.Report.Total())
		})
		for rank, o := range ok[:min(k, len(ok))] {
			total := o.Result.Report.Total()
			t.AddRow(
				artifact.Str(bench), artifact.Int(rank+1), artifact.Str(o.Point.Design),
				artifact.Num(o.Point.Cost), artifact.Num(total*1e3), artifact.Num(base/total),
			)
		}
	}
	return t
}

// cmpFloat orders a before b exactly when a < b: under a stable sort, equal
// and unordered (NaN) values both keep their input order.
func cmpFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case b < a:
		return 1
	}
	return 0
}

// EnergyTable renders every successful point's per-component energy
// breakdown (µJ per component, total, average power, EDP) under profile p
// in point order — the explorer's view of the energy model, shaped like the
// figures "energy" experiment. A nil p prices each result under its own
// architecture's committed default profile (see GoalEnergy). Failed or
// skipped points are omitted: they have no counters to integrate.
func (x *Exploration) EnergyTable(p *energy.TechProfile) *artifact.Table {
	title := "per-point energy breakdown under per-architecture default profiles"
	if p != nil {
		title = "per-point energy breakdown under profile " + p.Name
	}
	t := x.newTable("pathfind-energy", "Pathfinding (energy)", title)
	t.Columns = append(t.Columns, artifact.Column{Name: "benchmark"}, artifact.Column{Name: "design"})
	t.Columns = append(t.Columns, energy.BreakdownColumns()...)
	for _, o := range x.Outcomes {
		if o.Result == nil || o.Err != nil {
			continue
		}
		row := make([]artifact.Value, 0, len(t.Columns))
		row = append(row, artifact.Str(o.Point.Benchmark), artifact.Str(o.Point.Design))
		t.AddRow(energy.AppendBreakdownRow(row, o.Result.Energy(p), o.Result.Report.Total())...)
	}
	return t
}

// newTable stamps a table with the exploration's dataset scale.
func (x *Exploration) newTable(key, id, title string) *artifact.Table {
	return &artifact.Table{Key: key, ID: id, Title: title, Scale: x.Space.Scale.String()}
}

// benchOrder lists the space's benchmarks in declaration order.
func (x *Exploration) benchOrder() []string { return x.Space.Benchmarks }

// benchGroups splits the outcomes by benchmark: group i points at
// benchOrder()[i]'s outcomes in point order, without copying them.
func (x *Exploration) benchGroups() [][]*Outcome {
	groups := make([][]*Outcome, len(x.benchOrder()))
	for i, bench := range x.benchOrder() {
		for j := range x.Outcomes {
			if x.Outcomes[j].Point.Benchmark == bench {
				groups[i] = append(groups[i], &x.Outcomes[j])
			}
		}
	}
	return groups
}

// baseTime returns the benchmark's reference total time: its first
// successful point in space order (the all-baseline design when feasible).
func baseTime(group []*Outcome) float64 {
	for _, o := range group {
		if o.Result != nil && o.Err == nil {
			return o.Result.Report.Total()
		}
	}
	return 0
}

func goalNames(goals []Goal) string {
	s := ""
	for i, g := range goals {
		if i > 0 {
			s += " vs "
		}
		s += g.Name
	}
	return s
}
