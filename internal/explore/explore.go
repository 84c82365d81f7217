// Package explore is the pathfinding design-space explorer — the paper's
// headline methodology turned into a subsystem. A Space is the constrained
// Cartesian product of typed design axes (tasklets, DPUs, frequency,
// MRAM-link scale, the ILP feature ladder, memory-hierarchy mode) over a
// base configuration and a set of benchmarks; an Explorer drives every point
// of a space through the concurrent sweep engine, backed by a persistent
// content-addressed result Store so interrupted or repeated explorations
// resume instantly and a point is never simulated twice — not even across
// processes or across explorations that merely overlap.
//
// On top of the raw outcomes, Pareto extraction (pareto.go) and artifact
// tables (tables.go) turn an exploration into the deliverables the paper's
// pathfinding chapters are about: time/cost frontiers and ranked best
// configurations per benchmark.
package explore

import (
	"context"

	"upim/internal/core"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// Options parameterize an Explorer.
type Options struct {
	// Parallelism bounds the sweep worker pool (<= 0 selects GOMAXPROCS).
	Parallelism int
	// Watchdog bounds each point's per-DPU launch cycles (0 = host default).
	// It is part of a point's store key, so changing it re-simulates.
	Watchdog uint64
	// Store persists finished points; nil disables persistence. Any Backend
	// works: the local-dir Store, an HTTPStore talking to a `pathfind serve`
	// store server, or a custom implementation passing the storetest
	// conformance suite.
	Store Backend
	// Refresh ignores existing store entries (every point re-simulates) while
	// still writing fresh ones — for explicitly re-validating a store after a
	// simulator change without deleting it.
	Refresh bool
	// Cache shares kernel builds with other engines; nil allocates a private
	// cache.
	Cache *prim.BuildCache
	// OnOutcome, when non-nil, observes every outcome (cached or simulated)
	// synchronously as it is recorded — progress display, early cancellation.
	OnOutcome func(Outcome)
}

// Outcome is the result of one design point.
type Outcome struct {
	// Point is the originating design point; Index its position in
	// Exploration.Points.
	Point Point
	Index int
	// Key is the point's content address in the store.
	Key string
	// Result is the verified simulation result (nil when the simulation
	// failed, the exploration was cancelled before the point ran, or the
	// point was triaged to estimate fidelity by a two-tier exploration). A
	// result that failed to persist stays here beside the store error in Err.
	Result *prim.Result
	// Fidelity is FidelityExact when Result is set, FidelityEstimate when the
	// point carries only a tier-A estimate, "" for failed/skipped points.
	Fidelity string
	// Estimate is the tier-A analytical prediction. Two-tier explorations set
	// it on every estimable point — including simulated ones, where it sits
	// alongside the exact Result for predicted-vs-actual accounting.
	Estimate *estimate.Estimate
	// Cached marks a store hit: the point was not simulated by this run.
	Cached bool
	Err    error
}

// Exploration is one explored space: every point with its outcome
// (index-aligned), plus counters proving how much work the store saved.
type Exploration struct {
	Space    *Space
	Points   []Point
	Outcomes []Outcome
	// Hits counts points served from the store, Simulated points actually
	// run by this exploration, Failed points that errored, and Estimated
	// points resolved at estimate fidelity without simulation (two-tier
	// explorations only).
	Hits, Simulated, Failed, Estimated int
}

// FirstErr returns the first point error in point order, if any.
func (x *Exploration) FirstErr() error {
	for i := range x.Outcomes {
		if err := x.Outcomes[i].Err; err != nil {
			return err
		}
	}
	return nil
}

// Explorer runs design spaces through the sweep engine and the result store.
// All methods are safe for concurrent use.
type Explorer struct {
	eng       *engine.Engine
	store     Backend
	watchdog  uint64
	refresh   bool
	onOutcome func(Outcome)
}

// New builds an Explorer.
func New(opts Options) *Explorer {
	cache := opts.Cache
	if cache == nil {
		cache = prim.NewBuildCache()
	}
	return &Explorer{
		eng:       engine.NewWithCache(opts.Parallelism, cache),
		store:     resolveBackend(opts.Store),
		watchdog:  opts.Watchdog,
		refresh:   opts.Refresh,
		onOutcome: opts.OnOutcome,
	}
}

// Explore runs every point of the space: points already in the store are
// served from it (Cached outcomes, no simulation); the rest run concurrently
// on the sweep engine and are persisted as they finish, so cancelling ctx
// mid-run loses at most the in-flight points — a later Explore over the same
// store resumes where this one stopped.
//
// The returned Exploration is always non-nil and index-aligned with the
// space's points. The error is ctx.Err() after a cancellation, otherwise the
// first per-point failure (all points are attempted regardless); per-point
// errors are also recorded on their outcomes.
func (e *Explorer) Explore(ctx context.Context, space *Space) (*Exploration, error) {
	pts, err := space.Points()
	if err != nil {
		return nil, err
	}
	return e.run(ctx, space, pts, nil)
}

// begin opens point i's outcome with everything known before the store is
// consulted: its key (the explorer's watchdog defaulted into the engine
// point) and, under a band plan, its estimate.
func (e *Explorer) begin(p Point, i int, plan *BandPlan) (Outcome, engine.Point) {
	ep := p.EP
	if ep.Watchdog == 0 {
		ep.Watchdog = e.watchdog
	}
	o := Outcome{Point: p, Index: i, Key: KeyOf(ep)}
	if plan != nil {
		o.Estimate = plan.Estimates[i]
	}
	return o, ep
}

// resolve is the whole per-point step: an out-of-band point of a band plan
// retires with the estimate-fidelity write that keeps the store a record of
// the whole exploration at its actual fidelity; any other point is a store
// hit (unless refreshing) or simulates in arena and persists. A result that
// fails to persist is a failed point — its outcome carries the store error
// and the next run re-simulates it.
func (e *Explorer) resolve(ctx context.Context, p Point, i int, plan *BandPlan, arena *core.Arena) Outcome {
	o, ep := e.begin(p, i, plan)
	if plan != nil && !plan.InBand[i] {
		if o.Err = e.store.PutEstimate(o.Key, ep, o.Estimate); o.Err == nil {
			o.Fidelity = FidelityEstimate
		}
		return o
	}
	if !e.refresh {
		if res, ok := e.store.Get(o.Key); ok {
			o.Result, o.Cached, o.Fidelity = res, true, FidelityExact
			return o
		}
	}
	o.Result, o.Err = e.eng.RunInArena(ctx, ep, arena)
	if o.Err == nil && o.Result != nil {
		if o.Err = e.store.Put(o.Key, ep, o.Result); o.Err == nil {
			o.Fidelity = FidelityExact
		}
	}
	return o
}

// Resolve runs the per-point step — lookup, simulate on a miss, commit — for
// point i of an enumeration on the caller's goroutine, and returns its
// outcome. It is the unit Explore and ExploreTiered sweep, exposed for
// drivers that schedule points themselves (the coordinator's workers); plan
// is nil for single-fidelity explorations.
func (e *Explorer) Resolve(ctx context.Context, p Point, i int, plan *BandPlan) Outcome {
	o := e.resolve(ctx, p, i, plan, nil)
	e.emit(o)
	return o
}

// run is the one exploration driver: one sweep of the per-point step over
// every point on the engine's pool, so store reads, entry decodes and writes
// run Parallelism at a time beside the simulations. This goroutine only
// records the outcomes as they arrive, counts them and hands each to the
// observer — OnOutcome is never entered concurrently. A completed tiered run
// also fills the plan's predicted-vs-actual accuracy.
func (e *Explorer) run(ctx context.Context, space *Space, pts []Point, plan *BandPlan) (*Exploration, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	x := &Exploration{Space: space, Points: pts, Outcomes: make([]Outcome, len(pts))}
	done := make(chan Outcome)
	go func() {
		defer close(done)
		e.eng.Each(ctx, len(pts), func(i int, arena *core.Arena) {
			o := e.resolve(ctx, pts[i], i, plan, arena)
			if o.Fidelity == "" && ctx.Err() != nil {
				return // interrupted, not finished: left to the marking below
			}
			// Never abandoned on cancellation: a point that reached the
			// store is always a recorded outcome.
			done <- o
		})
	}()
	for o := range done {
		x.Outcomes[o.Index] = o
		switch {
		case o.Err != nil:
			x.Failed++
		case o.Cached:
			x.Hits++
		case o.Fidelity == FidelityEstimate:
			x.Estimated++
		case o.Result != nil:
			x.Simulated++
		}
		e.emit(o)
	}
	if err := ctx.Err(); err != nil {
		// Mark the points the cancelled sweep never finished.
		for i, p := range pts {
			if x.Outcomes[i].Key == "" {
				x.Outcomes[i], _ = e.begin(p, i, plan)
				x.Outcomes[i].Err = err
			}
		}
		return x, err
	}
	if plan != nil {
		bandAccuracy(x, plan.Triage)
	}
	return x, x.FirstErr()
}

func (e *Explorer) emit(o Outcome) {
	if e.onOutcome != nil {
		e.onOutcome(o)
	}
}
