package upim

import (
	"context"

	"upim/internal/explore"
)

// Pathfinding — the paper's design-space exploration methodology as a public
// API. Build a DesignSpace from typed axes, then Explore it: every point
// runs through the concurrent sweep engine, backed by an optional persistent
// content-addressed ResultStore so interrupted or repeated explorations
// resume instantly and a finished point is never simulated twice, even
// across processes. See cmd/pathfind for the CLI front end.

// DesignAxis is one named design dimension: an ordered list of levels, the
// first conventionally the baseline.
type DesignAxis = explore.Axis

// DesignSpace is the Cartesian product of axis levels over the Table I
// configuration and a set of benchmarks, minus the points a backend refuses.
type DesignSpace = explore.Space

// DesignPoint is one fully-resolved point of a design space.
type DesignPoint = explore.Point

// Exploration is one explored space: outcomes aligned with its points plus
// store-hit counters, with artifact extraction via SummaryTable,
// ParetoTable and BestTable.
type Exploration = explore.Exploration

// ExploreOutcome is the result of one design point (Cached marks store hits).
type ExploreOutcome = explore.Outcome

// ExploreOptions parameterize Explore.
type ExploreOptions = explore.Options

// ExploreGoal is one Pareto objective (lower is better).
type ExploreGoal = explore.Goal

// ResultStore is the persistent content-addressed result store behind
// resumable explorations.
type ResultStore = explore.Store

// NewDesignSpace builds a design space over the Table I configuration at
// ScaleSmall on one DPU; set Scale or DPUs to change either.
func NewDesignSpace(benchmarks []string, axes ...DesignAxis) *DesignSpace {
	return explore.NewSpace(benchmarks, axes...)
}

// Typed axis constructors over the paper's pathfinding dimensions.
var (
	// AxisTasklets sweeps threads per DPU (warps under ModeSIMT).
	AxisTasklets = explore.Tasklets
	// AxisDPUs sweeps the DPU allocation size.
	AxisDPUs = explore.DPUs
	// AxisFrequencyMHz sweeps the DPU clock (values must divide the tick clock).
	AxisFrequencyMHz = explore.FrequencyMHz
	// AxisLinkScale sweeps the MRAM-WRAM link bandwidth multiplier (Fig 13).
	AxisLinkScale = explore.LinkScale
	// AxisILP sweeps the Fig 12 feature ladder ("base", "D", "DR", ...).
	AxisILP = explore.ILP
	// AxisModes sweeps the memory-hierarchy variant (scratchpad/cache/simt).
	AxisModes = explore.Modes
	// AxisPolicies sweeps the serving scheduler policy (fifo/wfq/slo) — a
	// host-software axis scored by GoalP99, free and no-op on the simulated
	// point, so every level shares one store entry.
	AxisPolicies = explore.Policies
	// AxisArchs sweeps the machine architecture ("upmem", "hbm-pim"):
	// which machine description and backend simulates each point. Results
	// for different architectures never share a store entry, and energy
	// goals price each under its own default TechProfile.
	AxisArchs = explore.Archs
)

// ParseAxes parses a CLI-style axis spec
// ("tasklets=1,4,16;ilp=base,D,DRSF;link=1,2,4") into typed axes.
func ParseAxes(spec string) ([]DesignAxis, error) { return explore.ParseAxes(spec) }

// OpenResultStore opens (creating if needed) a persistent result store
// rooted at dir. Results are keyed by a content hash of the full point
// (benchmark, config, DPUs, scale, watchdog, machine) and packed into
// append-only segment files, one per writing handle; each record is one
// checksummed write, so a killed exploration leaves at worst a torn tail
// that readers skip.
func OpenResultStore(dir string) (*ResultStore, error) { return explore.OpenStore(dir) }

// PointKey returns the content address Explore uses for one design point's
// simulation input — the store key of its result.
func PointKey(p DesignPoint) string { return explore.KeyOf(p.EP) }

// Explore runs every point of the design space: points already in
// opts.Store are served from it without simulating, the rest run
// concurrently on a bounded worker pool (sharing one kernel build cache)
// and persist as they finish. Cancelling ctx loses only in-flight points —
// a later Explore over the same store resumes where this one stopped. The
// returned Exploration is always non-nil and point-aligned; the error is
// ctx.Err() after cancellation, else the first per-point failure.
func Explore(ctx context.Context, space *DesignSpace, opts ExploreOptions) (*Exploration, error) {
	return explore.New(opts).Explore(ctx, space)
}

// Pareto objectives for ParetoFront and Exploration.ParetoTable.
var (
	// GoalTime is modeled end-to-end seconds (kernel + transfers).
	GoalTime = explore.GoalTime
	// GoalKernelTime is modeled kernel-only seconds.
	GoalKernelTime = explore.GoalKernelTime
	// GoalCost is the summed hardware cost of the point's axis levels.
	GoalCost = explore.GoalCost
	// GoalEnergy is modeled total energy in µJ under a TechProfile (nil =
	// the committed default).
	GoalEnergy = explore.GoalEnergy
	// GoalEDP is the energy-delay product in µJ·ms under a TechProfile.
	GoalEDP = explore.GoalEDP
	// GoalP99 is served p99 tail latency in ms under the canned two-tenant
	// workload, scheduled by the point's "policy" axis level (fifo without
	// one) — the QoS pathfinding goal.
	GoalP99 = explore.GoalP99
)

// ParseGoals parses a comma-separated goal spec ("time,cost",
// "energy,cost", "edp") into Pareto objectives; energy and edp compute
// under profile p (nil = the committed default). Errors name the valid
// goals.
func ParseGoals(spec string, p *TechProfile) ([]ExploreGoal, error) {
	return explore.ParseGoals(spec, p)
}

// ParetoFront returns the non-dominated outcomes under the goals (default:
// total time vs hardware cost). Group by benchmark before calling —
// dominance across workloads is meaningless.
func ParetoFront(outs []ExploreOutcome, goals ...ExploreGoal) []ExploreOutcome {
	return explore.Pareto(outs, goals...)
}

// Outcome fidelity values (ExploreOutcome.Fidelity and store entries).
const (
	// FidelityExact marks a cycle-exact simulation result.
	FidelityExact = explore.FidelityExact
	// FidelityEstimate marks a tier-A analytical estimate never validated by
	// simulation.
	FidelityEstimate = explore.FidelityEstimate
)

// TieredExploreOptions parameterize ExploreTiered: the estimator, the
// ε-band slack, and the goals the band is computed over.
type TieredExploreOptions = explore.TieredOptions

// ExploreTriage summarizes a two-tier exploration's estimate/simulate split
// and the estimator's measured accuracy on the simulated band.
type ExploreTriage = explore.Triage

// ExploreTiered runs the space in two fidelity tiers: the space's anchor
// points (each point at the default clock, link and ILP) resolve through the
// store or simulate first, every feasible point is then estimated
// analytically from its anchor (~µs each), and only the estimated ε-Pareto
// band over the active goals, plus the anchors, is simulated cycle-exactly
// through the store. Points outside the band resolve at estimate fidelity
// and write nothing to the store. Band membership depends
// only on the space, calibration, goals, slack and simulator — never on
// store contents — so resumed two-tier explorations reproduce
// byte-identical artifacts.
func ExploreTiered(ctx context.Context, space *DesignSpace, opts ExploreOptions, topts TieredExploreOptions) (*Exploration, *ExploreTriage, error) {
	return explore.New(opts).ExploreTiered(ctx, space, topts)
}

// PlanTieredExploration resolves the space's anchors through opts' store
// (simulating and persisting the ones it lacks) and performs tier-A triage
// only, returning the predicted estimate/simulate split for the space (the
// `pathfind -plan -tier2` guard). Nothing else is simulated.
func PlanTieredExploration(ctx context.Context, space *DesignSpace, opts ExploreOptions, topts TieredExploreOptions) (*ExploreTriage, error) {
	return explore.New(opts).PlanTiered(ctx, space, topts)
}
