package explore

import (
	"math"
	"strings"

	"upim/internal/energy"
	"upim/internal/serve"
)

// Goal is one Pareto objective extracted from a successful outcome. Lower
// values are better for every goal (maximization goals negate).
type Goal struct {
	Name string
	// Unit annotates artifact columns ("ms", "" for unitless).
	Unit string
	// UsesProfile marks goals whose values depend on an energy TechProfile
	// (energy, EDP) — CLIs use it to reject a -profile nothing will read
	// without string-matching goal names.
	UsesProfile bool
	// ProfileName names the TechProfile a UsesProfile goal was bound to. The
	// two-tier explorer refuses to triage when it differs from the
	// estimator's profile — estimated and exact values must be priced under
	// the same technology.
	ProfileName string
	// Value extracts the objective from an outcome with a non-nil Result,
	// expressed in Unit units — artifact tables render it as-is.
	Value func(Outcome) float64
	// Est extracts the same objective from an outcome carrying only a tier-A
	// estimate (Outcome.Estimate non-nil), in the same Unit. Goals without an
	// Est accessor cannot drive two-tier triage.
	Est func(Outcome) float64
}

// GoalTime is the modeled end-to-end milliseconds of a point (kernel plus
// every transfer phase) — the performance axis of the paper's pathfinding
// studies.
func GoalTime() Goal {
	return Goal{
		Name: "total time",
		Unit: "ms",
		Value: func(o Outcome) float64 {
			r := o.Result.Report
			return r.Total() * 1e3
		},
		Est: func(o Outcome) float64 { return o.Estimate.TotalSeconds * 1e3 },
	}
}

// GoalKernelTime is the modeled kernel-only milliseconds of a point,
// excluding host transfers — the single-DPU characterization axis.
func GoalKernelTime() Goal {
	return Goal{
		Name:  "kernel time",
		Unit:  "ms",
		Value: func(o Outcome) float64 { return o.Result.Report.KernelSeconds * 1e3 },
		Est:   func(o Outcome) float64 { return o.Estimate.KernelSeconds * 1e3 },
	}
}

// GoalCost is the summed hardware cost of the point's axis levels — the
// "how much future silicon does this design spend" axis (see Level).
func GoalCost() Goal {
	return Goal{
		Name:  "cost",
		Value: func(o Outcome) float64 { return o.Point.Cost },
		Est:   func(o Outcome) float64 { return o.Point.Cost },
	}
}

// GoalEnergy is the modeled end-to-end energy of a point in microjoules
// (per-DPU kernel events plus host transfers) under profile p — the paper's
// "efficiency, not just time" axis. A nil p stays nil: each result is then
// priced under its own architecture's committed default profile
// (energy.DefaultFor), which is what makes cross-architecture frontiers
// meaningful — a bank-level MAC machine must not be charged UPMEM pipeline
// energies. An explicit profile applies to every result regardless of
// architecture. ProfileName reports the UPMEM default's name in the nil
// case, which keeps the two-tier triage compatibility check honest: the
// estimator is UPMEM-only, and UPMEM results are indeed priced under that
// default.
func GoalEnergy(p *energy.TechProfile) Goal {
	return Goal{
		Name:        "energy",
		Unit:        "uJ",
		UsesProfile: true,
		ProfileName: energy.ResolveProfile(p).Name,
		Value:       func(o Outcome) float64 { return o.Result.Energy(p).MicroJoules() },
		Est:         func(o Outcome) float64 { return o.Estimate.MicroJoules() },
	}
}

// GoalEDP is the energy-delay product of a point in µJ·ms (total energy
// times total modeled time) under profile p — the balanced goal for designs
// that must be both fast and efficient. Profile resolution follows
// GoalEnergy: nil prices each result under its architecture's default.
func GoalEDP(p *energy.TechProfile) Goal {
	return Goal{
		Name:        "EDP",
		Unit:        "uJ*ms",
		UsesProfile: true,
		ProfileName: energy.ResolveProfile(p).Name,
		Value: func(o Outcome) float64 {
			return o.Result.Energy(p).EDPMicroJouleMS(o.Result.Report.Total())
		},
		Est: func(o Outcome) float64 { return o.Estimate.EDPMicroJouleMS() },
	}
}

// GoalP99 is the tail-latency QoS objective: the p99 request latency in
// milliseconds when the point serves the canned two-tenant open-loop
// workload (serve.EvalP99), scheduled by the policy the point's "policy"
// axis selects (fifo when the space has no policy axis). The canned
// workload is frozen and the evaluation deterministic, so p99 is as
// comparable — and as cacheable — as any other goal, and a Policies axis
// turns scheduling itself into a pathfinding dimension.
func GoalP99() Goal {
	return Goal{
		Name: "p99",
		Unit: "ms",
		Value: func(o Outcome) float64 {
			v, err := serve.EvalP99(o.Result, policyOf(o.Point))
			if err != nil {
				return math.NaN()
			}
			return v
		},
		Est: func(o Outcome) float64 {
			v, err := serve.EvalP99Estimate(o.Estimate.TotalSeconds, o.Point.Benchmark, policyOf(o.Point))
			if err != nil {
				return math.NaN()
			}
			return v
		},
	}
}

// policyOf extracts the point's "policy" axis label from its Design
// string, defaulting to fifo for spaces without a policy axis.
func policyOf(p Point) string {
	for _, tok := range strings.Fields(p.Design) {
		if v, ok := strings.CutPrefix(tok, "policy="); ok {
			return v
		}
	}
	return "fifo"
}

// Pareto returns the Pareto frontier of the given outcomes under the goals:
// the outcomes not dominated by any other (a dominates b when a is no worse
// on every goal and strictly better on at least one). Outcomes without a
// result (failed or cancelled points) are excluded; input order is
// preserved, so frontiers are deterministic. Callers comparing across
// benchmarks should group first — dominance across different workloads is
// meaningless.
func Pareto(outs []Outcome, goals ...Goal) []Outcome {
	if len(goals) == 0 {
		goals = []Goal{GoalTime(), GoalCost()}
	}
	var ok []Outcome
	for _, o := range outs {
		if o.Result != nil && o.Err == nil {
			ok = append(ok, o)
		}
	}
	vals := make([][]float64, len(ok))
	for i, o := range ok {
		vals[i] = make([]float64, len(goals))
		for g, goal := range goals {
			vals[i][g] = goal.Value(o)
		}
	}
	var front []Outcome
	for i := range ok {
		dominated := false
		for j := range ok {
			if i != j && dominates(vals[j], vals[i], 0) {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, ok[i])
		}
	}
	return front
}

// dominates reports whether a still dominates b when inflated by the
// relative slack eps: a*(1+eps) no worse than b everywhere, strictly better
// somewhere (minimization; negative values pass the slack through sign-
// safely by inflating toward b). eps 0 is plain Pareto dominance.
func dominates(a, b []float64, eps float64) bool {
	better := false
	for g := range a {
		av := a[g]
		if av >= 0 {
			av *= 1 + eps
		} else {
			av /= 1 + eps
		}
		if av > b[g] {
			return false
		}
		if av < b[g] {
			better = true
		}
	}
	return better
}
