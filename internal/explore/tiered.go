package explore

import (
	"context"
	"fmt"
	"math"

	"upim/internal/artifact"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// TieredOptions parameterize a two-tier exploration: tier A estimates every
// feasible point analytically, tier B re-simulates only the estimated Pareto
// band cycle-exactly.
type TieredOptions struct {
	// Estimator projects the tier-A predictions from the anchors' results
	// (nil: the committed default calibration under the default energy
	// profile).
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
// the deterministic simulator — an anchor read from the store is the run
// the simulator would produce — which is what keeps resumed two-tier
// explorations byte-identical.
type Triage struct {
	// Anchors counts the distinct anchor points (estimate.AnchorOf) the
	// estimates project from, each resolved through the store or simulated
	// before triage, whether or not it is a point of the space.
	Anchors int
	// Feasible counts the space's points; Estimable the points with a
	// successfully simulated anchor; Unestimable the rest (forced into the
	// band).
	Feasible, Estimable, Unestimable int
	// Band counts the points selected for cycle-exact simulation (the
	// ε-Pareto band plus every anchor and every unestimable point);
	// EstimateOnly the points resolved from the estimate alone (Feasible -
	// Band).
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

// triage runs tier A: project every point from its anchor's result (nil:
// unestimable) and select the simulation band. It returns the per-point
// estimates (nil where unestimable), the band membership mask, and the
// counts. Band membership is computed purely from the estimates and the
// anchor mask — never from store contents — so it is identical across
// resumed runs over the same space and calibration.
func triage(pts []Point, anchorRes []*prim.Result, anchored []*Outcome, topts TieredOptions) ([]*estimate.Estimate, []bool, *Triage) {
	ests := make([]*estimate.Estimate, len(pts))
	tri := &Triage{Feasible: len(pts)}
	for i, p := range pts {
		if anchorRes[i] == nil {
			tri.Unestimable++
			continue
		}
		ests[i] = topts.Estimator.Project(p.EP, anchorRes[i])
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
		if ests[i] == nil || anchored[i] != nil {
			// Unestimable: simulation is the only fidelity. An anchor: it
			// is already resolved.
			inBand[i] = true
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

// ExploreTiered runs the space in two fidelity tiers. First the space's
// distinct anchors (estimate.AnchorOf) resolve like any point — a store hit,
// or simulate and persist — on the engine's pool. Tier A then projects
// every feasible point from its anchor's result analytically (~µs each),
// and tier B simulates only the estimated ε-Pareto band over the active
// goals — typically a small fraction of the space — through the store,
// exactly like Explore. An anchor that is a point of the space is part of
// the band and keeps the outcome it resolved with. Points outside the band
// resolve at estimate fidelity: their outcomes carry the estimate instead of
// a Result, and they write nothing to the store — every run re-derives them
// from the anchors' stored results.
//
// Band membership depends only on the space, the calibration, the goals and
// the slack — not on what the store already holds — so a resumed two-tier
// exploration reproduces the same split, the same fidelity per point, and
// byte-identical artifact tables.
func (e *Explorer) ExploreTiered(ctx context.Context, space *Space, topts TieredOptions) (*Exploration, *Triage, error) {
	plan, err := e.planBand(ctx, space, topts)
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
	// Anchored holds, for each point that is its own anchor, the outcome it
	// resolved with before triage (nil elsewhere); the sweep reuses it.
	Anchored []*Outcome
	Triage   *Triage
}

// planBand resolves the space's anchors, then computes the tier-A plan.
func (e *Explorer) planBand(ctx context.Context, space *Space, topts TieredOptions) (*bandPlan, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	topts, err := resolveTiered(topts)
	if err != nil {
		return nil, err
	}
	pts, err := space.Points()
	if err != nil {
		return nil, err
	}
	anchored := make([]*Outcome, len(pts))
	anchorRes, n, err := e.resolveAnchors(ctx, pts, anchored)
	if err != nil {
		return nil, err
	}
	ests, inBand, tri := triage(pts, anchorRes, anchored, topts)
	tri.Anchors = n
	return &bandPlan{Points: pts, Estimates: ests, InBand: inBand, Anchored: anchored, Triage: tri}, nil
}

// resolveAnchors resolves the distinct anchors of the points on the
// engine's pool, each through the per-point step (a store hit, or simulate
// and persist), in order of first use. An anchor that is a point of the
// space resolves as that point, and its outcome lands in anchored. It
// returns each point's anchor result (nil where the point has no anchor or
// its anchor did not simulate) and the number of anchors.
func (e *Explorer) resolveAnchors(ctx context.Context, pts []Point, anchored []*Outcome) ([]*prim.Result, int, error) {
	type anchor struct {
		p Point
		i int // the anchor's index in pts, or -1 outside the space
	}
	var anchors []anchor
	pos := map[engine.Point]int{}
	of := make([]int, len(pts)) // each point's anchor, -1 for none
	for i, p := range pts {
		a, err := estimate.AnchorOf(p.EP)
		if err != nil {
			of[i] = -1
			continue
		}
		k, ok := pos[a]
		if !ok {
			k = len(anchors)
			pos[a] = k
			anchors = append(anchors, anchor{Point{Benchmark: p.Benchmark, EP: a}, -1})
		}
		if a == p.EP {
			anchors[k] = anchor{p, i}
		}
		of[i] = k
	}
	outs := make([]Outcome, len(anchors))
	e.eng.Each(ctx, len(anchors), func(k int) {
		outs[k] = e.resolve(ctx, anchors[k].p, anchors[k].i, nil)
	})
	if err := ctx.Err(); err != nil {
		return nil, 0, err
	}
	for k, a := range anchors {
		if a.i >= 0 {
			anchored[a.i] = &outs[k]
		}
	}
	res := make([]*prim.Result, len(pts))
	for i, k := range of {
		if k >= 0 {
			res[i] = outs[k].Result
		}
	}
	return res, len(anchors), nil
}

// PlanTiered resolves the space's anchors — through the store, simulating
// and persisting the ones it lacks — and performs tier-A triage, without
// simulating anything else; it returns the predicted estimate/simulate
// split. This is the `pathfind -plan -tier2` guard against launching
// week-long sweeps; an exploration over the same store then finds its
// anchors there.
func (e *Explorer) PlanTiered(ctx context.Context, space *Space, topts TieredOptions) (*Triage, error) {
	plan, err := e.planBand(ctx, space, topts)
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
