package serve

import (
	"context"

	"upim/internal/energy"
	"upim/internal/prim"
)

// evalOptions is the fixed, canned workload EvalP99 scores a design
// point under: two co-located tenants (a latency tenant with 3x the
// share and a batch tenant) issuing the point's kernel as an open-loop
// Poisson stream at 70% offered load onto two rank groups. The workload
// is frozen — same seed, same shape for every point — so p99 is a pure
// function of the point's profiled timings and the policy, and the goal
// is comparable across a pathfinding sweep.
func evalOptions(policy Policy) Options {
	return Options{
		Tenants: []Tenant{
			{Name: "lat", Weight: 3, SLOClass: "latency"},
			{Name: "bulk", Weight: 1, SLOClass: "batch"},
		},
		Policy:   policy,
		Groups:   2,
		MaxBatch: 4,
		Requests: 48,
		Load:     0.7,
		Seed:     1,
	}.withDefaults()
}

// evalP99 replays the canned workload against a single-kernel profile:
// Serve's run path with the profiling step already done.
func evalP99(prof profile, benchmark string, policy Policy) (float64, error) {
	p := &prepared{opts: evalOptions(policy), kernels: []string{benchmark}, profiles: []profile{prof}}
	for i := range p.opts.Tenants {
		p.opts.Tenants[i].Mix = []string{benchmark}
	}
	arr := p.arrivals(p.opts.Load)
	var s scratch
	outs, makespan, err := p.replay(context.TODO(), policy, arr, &s) // EvalP99 takes no context
	if err != nil {
		return 0, err
	}
	return s.overallMetrics(arr, outs, makespan).P99MS, nil
}

// EvalP99 scores one cycle-exact result as a server: it replays the
// canned two-tenant workload against the result's profiled service time
// and returns the overall p99 latency in milliseconds. Deterministic —
// the same result and policy always yield the same p99 — so it is safe
// as a pathfinding goal over store-loaded results.
func EvalP99(res *prim.Result, policyName string) (float64, error) {
	// wfq's weights derive from the canned tenant set.
	p, err := NewPolicy(policyName, evalOptions(nil).Tenants)
	if err != nil {
		return 0, err
	}
	return evalP99(profileOf(res, energy.ResolveProfile(nil)), res.Benchmark, p)
}

// EvalP99Estimate is EvalP99's analytical-tier counterpart: it scores an
// estimated total runtime (seconds) as an unsplit per-request service
// time under the same canned workload, for triage before cycle-exact
// simulation.
func EvalP99Estimate(totalSeconds float64, benchmark, policyName string) (float64, error) {
	opts := evalOptions(nil)
	p, err := NewPolicy(policyName, opts.Tenants)
	if err != nil {
		return 0, err
	}
	return evalP99(profile{perS: totalSeconds}, benchmark, p)
}
