package upim

import (
	"context"

	"upim/internal/artifact"
	"upim/internal/serve"
)

// Serving — the simulated PIM system evaluated as a server under load
// rather than a closed sweep (the paper's case study 3 carried to its
// datacenter conclusion). A seeded open-loop request generator (Poisson
// or trace-driven) issues PrIM kernels on behalf of co-located tenants; a
// host-side scheduler batches and places them onto disjoint DPU rank
// groups under a pluggable policy; every run yields per-request latency
// and energy records plus p50/p95/p99, throughput and SLO-attainment
// metrics. The event loop runs in virtual time — no wall clock — so
// serving runs are deterministic and refdata-pinnable like every other
// artifact. See cmd/upimulator's serve subcommand for the CLI front end.

// ServeTenant is one co-located workload: name, kernel mix, weighted-fair
// share, SLO class/target and arrival rate.
type ServeTenant = serve.Tenant

// ServeRequest is one arrival of the workload (also the trace-entry type).
type ServeRequest = serve.Request

// ServeOptions parameterize one serving run.
type ServeOptions = serve.Options

// ServeResult is one completed serving run: per-request records plus
// per-tenant and overall metrics, with artifact extraction via
// RequestTable and SummaryTable.
type ServeResult = serve.Result

// SchedulingPolicy decides which pending request a freed DPU rank group
// serves next. Implementations must be deterministic — see the package
// documentation's determinism invariant.
type SchedulingPolicy = serve.Policy

// NewSchedulingPolicy constructs a built-in policy by name ("fifo",
// "wfq", "slo") with parameters derived from the tenant set.
func NewSchedulingPolicy(name string, tenants []ServeTenant) (SchedulingPolicy, error) {
	return serve.NewPolicy(name, tenants)
}

// SchedulingPolicyNames lists the built-in policy vocabulary.
func SchedulingPolicyNames() []string { return serve.PolicyNames() }

// Serve profiles the workload's kernels cycle-exactly (through the sweep
// engine's arenas and build cache, MMU enabled by default for tenant
// isolation) and replays the arrival stream through the scheduler in
// virtual time. The result is a pure function of opts: repeat runs — at
// any Parallelism — produce byte-identical request tables.
func Serve(ctx context.Context, opts ServeOptions) (*ServeResult, error) {
	return serve.Serve(ctx, opts)
}

// ServeLoadSweep serves the same workload at every (policy, load) pair
// and returns the p50/p99-vs-offered-load artifact table — the QoS curve
// of the serving evaluation. The kernels are profiled once for the whole
// sweep and the cells replay on up to opts.Parallelism workers; the table
// is identical to one built from a Serve call per cell.
func ServeLoadSweep(ctx context.Context, opts ServeOptions, policies []string, loads []float64) (*artifact.Table, error) {
	return serve.LoadSweep(ctx, opts, policies, loads)
}
