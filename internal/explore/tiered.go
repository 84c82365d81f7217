package explore

import (
	"context"
	"fmt"
	"math"

	"upim/internal/artifact"
	"upim/internal/estimate"
)

// TieredOptions parameterize a two-tier exploration: tier A estimates every
// feasible point analytically, tier B re-simulates only the estimated Pareto
// band cycle-exactly.
type TieredOptions struct {
	// Estimator produces the tier-A predictions (nil: the committed default
	// calibration under the default energy profile).
	Estimator *estimate.Estimator
	// Band is the ε slack of the estimated Pareto band: a point is triaged
	// out only when some point beats it by more than this relative margin on
	// every active goal. 0 keeps exactly the estimated frontier; larger
	// values trade simulation work for certainty that the true frontier
	// survives the triage.
	Band float64
	// Goals are the objectives the band is computed over (default: total
	// time vs hardware cost). Every goal needs an Est accessor, and
	// profile-dependent goals must be bound to the estimator's profile.
	Goals []Goal
}

// Triage summarizes the tier-A/tier-B split of a two-tier exploration. All
// fields are pure functions of (space, calibration, goals, band slack) and
// the deterministic simulator — independent of store contents — which is
// what keeps resumed two-tier explorations byte-identical.
type Triage struct {
	// Feasible counts the space's points; Estimable the points the
	// calibration covers; Unestimable the rest (forced into the band).
	Feasible, Estimable, Unestimable int
	// Band counts the points selected for cycle-exact simulation (the
	// ε-Pareto band plus every unestimable point); EstimateOnly the points
	// resolved from the estimate alone (Feasible - Band).
	Band, EstimateOnly int
	// MaxRelErr/MeanRelErr measure predicted-vs-actual relative error on
	// total time over the band points that have both an estimate and a
	// successful simulation (ErrSamples of them) — the live accuracy readout
	// of the calibration on this exploration.
	MaxRelErr, MeanRelErr float64
	ErrSamples            int
}

// resolveTiered validates the options and fills defaults.
func resolveTiered(topts TieredOptions) (TieredOptions, error) {
	if topts.Estimator == nil {
		est, err := estimate.New(nil, nil)
		if err != nil {
			return topts, err
		}
		topts.Estimator = est
	}
	if topts.Band < 0 || math.IsNaN(topts.Band) {
		return topts, fmt.Errorf("explore: band slack must be non-negative, got %v", topts.Band)
	}
	if len(topts.Goals) == 0 {
		topts.Goals = []Goal{GoalTime(), GoalCost()}
	}
	for _, g := range topts.Goals {
		if g.Est == nil {
			return topts, fmt.Errorf("explore: goal %q has no estimate accessor and cannot drive two-tier triage", g.Name)
		}
		if g.UsesProfile && g.ProfileName != topts.Estimator.ProfileName() {
			return topts, fmt.Errorf("explore: goal %q is priced under profile %q but the estimator uses %q — estimated and exact values must share one profile",
				g.Name, g.ProfileName, topts.Estimator.ProfileName())
		}
	}
	return topts, nil
}

// triage runs tier A: estimate every point and select the simulation band.
// It returns the per-point estimates (nil where unestimable), the band
// membership mask, and the counts. Band membership is computed purely from
// the estimates — never from store contents — so it is identical across
// resumed runs over the same space and calibration.
func triage(pts []Point, topts TieredOptions) ([]*estimate.Estimate, []bool, *Triage) {
	ests := make([]*estimate.Estimate, len(pts))
	tri := &Triage{Feasible: len(pts)}
	for i, p := range pts {
		e, err := topts.Estimator.Estimate(p.EP)
		if err != nil {
			tri.Unestimable++
			continue
		}
		ests[i] = e
		tri.Estimable++
	}

	// Goal values of every estimable point, via the goals' Est accessors.
	vals := make([][]float64, len(pts))
	for i := range pts {
		if ests[i] == nil {
			continue
		}
		o := Outcome{Point: pts[i], Index: i, Estimate: ests[i]}
		v := make([]float64, len(topts.Goals))
		for g, goal := range topts.Goals {
			v[g] = goal.Est(o)
		}
		vals[i] = v
	}

	// ε-band per benchmark: keep a point unless some same-benchmark point
	// still dominates it after being inflated by the slack. Frontiers across
	// benchmarks are meaningless, matching Pareto's grouping convention.
	inBand := make([]bool, len(pts))
	byBench := map[string][]int{}
	for i, p := range pts {
		if ests[i] != nil {
			byBench[p.Benchmark] = append(byBench[p.Benchmark], i)
		}
	}
	for i := range pts {
		if ests[i] == nil {
			inBand[i] = true // unestimable: simulation is the only fidelity
			continue
		}
		dominated := false
		for _, j := range byBench[pts[i].Benchmark] {
			if j != i && dominates(vals[j], vals[i], topts.Band) {
				dominated = true
				break
			}
		}
		inBand[i] = !dominated
	}
	for i := range pts {
		if inBand[i] {
			tri.Band++
		} else {
			tri.EstimateOnly++
		}
	}
	return ests, inBand, tri
}

// ExploreTiered runs the space in two fidelity tiers: tier A estimates every
// feasible point analytically (~µs each, no simulation), tier B simulates
// only the estimated ε-Pareto band over the active goals — typically a small
// fraction of the space — through the store, exactly like Explore. Points
// outside the band resolve at estimate fidelity: their outcomes carry the
// estimate instead of a Result, and they persist to the store under the
// estimate fidelity tag (never clobbering an exact entry) so the store
// remains a complete, greppable record of the exploration.
//
// Band membership depends only on the space, the calibration, the goals and
// the slack — not on what the store already holds — so a resumed two-tier
// exploration reproduces the same split, the same fidelity per point, and
// byte-identical artifact tables.
func (e *Explorer) ExploreTiered(ctx context.Context, space *Space, topts TieredOptions) (*Exploration, *Triage, error) {
	plan, err := planBand(space, topts)
	if err != nil {
		return nil, nil, err
	}
	x, err := e.run(ctx, space, plan.Points, plan)
	return x, plan.Triage, err
}

// bandPlan is the full deterministic tier-A plan of a space: every point,
// its estimate (nil where unestimable), its band membership, and the triage
// counts, index-aligned with Space.Points(). The plan is a pure function of
// (space, calibration, goals, slack) — never of store contents — which is
// what lets a resumed run reproduce every point's fidelity.
type bandPlan struct {
	Points    []Point
	Estimates []*estimate.Estimate
	// InBand marks the points that must simulate cycle-exactly; the rest
	// resolve from Estimates (out-of-band points always have a non-nil
	// estimate — unestimable points are forced into the band).
	InBand []bool
	Triage *Triage
}

// planBand computes the tier-A plan without simulating or touching a store.
func planBand(space *Space, topts TieredOptions) (*bandPlan, error) {
	topts, err := resolveTiered(topts)
	if err != nil {
		return nil, err
	}
	pts, err := space.Points()
	if err != nil {
		return nil, err
	}
	ests, inBand, tri := triage(pts, topts)
	return &bandPlan{Points: pts, Estimates: ests, InBand: inBand, Triage: tri}, nil
}

// PlanTiered performs tier-A triage only — no simulation, no store access —
// and returns the predicted estimate/simulate split for the space. This is
// the `pathfind -plan -tier2` guard against launching week-long sweeps.
func PlanTiered(space *Space, topts TieredOptions) (*Triage, error) {
	plan, err := planBand(space, topts)
	if err != nil {
		return nil, err
	}
	return plan.Triage, nil
}

// bandAccuracy fills the predicted-vs-actual error fields from the band
// points that carry both an estimate and a successful simulation.
func bandAccuracy(x *Exploration, tri *Triage) {
	sum := 0.0
	for _, o := range x.Outcomes {
		if o.Result == nil || o.Err != nil || o.Estimate == nil {
			continue
		}
		actual := o.Result.Report.Total()
		rel := math.Abs(o.Estimate.TotalSeconds-actual) / math.Max(actual, 1e-12)
		tri.MaxRelErr = math.Max(tri.MaxRelErr, rel)
		sum += rel
		tri.ErrSamples++
	}
	if tri.ErrSamples > 0 {
		tri.MeanRelErr = sum / float64(tri.ErrSamples)
	}
}

// TriageTable renders the triage summary as a one-row artifact table — the
// CI artifact proving how much of the space the estimator retired and how
// accurate it was on the band. Every column is resume-invariant (see
// Triage), so the table participates in the byte-identical-artifacts
// contract like any other.
func (x *Exploration) TriageTable(tri *Triage) *artifact.Table {
	t := x.newTable("pathfind-triage", "Pathfinding (triage)", "two-tier fidelity split and band accuracy")
	t.Columns = append(t.Columns,
		artifact.Column{Name: "feasible"},
		artifact.Column{Name: "estimable"},
		artifact.Column{Name: "unestimable"},
		artifact.Column{Name: "band"},
		artifact.Column{Name: "estimate-only"},
		artifact.Column{Name: "band max rel err"},
		artifact.Column{Name: "band mean rel err"},
	)
	t.AddRow(
		artifact.Int(tri.Feasible),
		artifact.Int(tri.Estimable),
		artifact.Int(tri.Unestimable),
		artifact.Int(tri.Band),
		artifact.Int(tri.EstimateOnly),
		artifact.Num(tri.MaxRelErr),
		artifact.Num(tri.MeanRelErr),
	)
	return t
}
