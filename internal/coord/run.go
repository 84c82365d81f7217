package coord

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"upim/internal/explore"
	"upim/internal/prim"
)

// Options parameterize a coordinated exploration.
type Options struct {
	// Workers is the number of concurrent workers draining shards
	// (default 4). Each worker simulates one point at a time — parallelism
	// is the worker count.
	Workers int
	// ShardSize is the number of points per leased shard (default: about
	// four shards per worker, capped at 64 points).
	ShardSize int
	// Parallelism bounds the final merge's sweep pool (<= 0: GOMAXPROCS).
	Parallelism int
	// Store is the shared result backend — required: coordination without a
	// store would make the final merge redo every point.
	Store explore.Backend
	// Tiered, when non-nil, runs the exploration in two fidelity tiers: the
	// coordinator derives the deterministic band plan once and workers
	// resolve out-of-band points at estimate fidelity.
	Tiered *explore.TieredOptions
	// Events, when non-nil, receives the machine-readable JSONL events log.
	Events io.Writer
	// OnProgress, when non-nil, observes live progress snapshots as points
	// resolve (terminal display; calls are serialized).
	OnProgress func(Progress)
}

// tracker accumulates live progress across workers and the merge.
type tracker struct {
	mu         sync.Mutex
	cbMu       sync.Mutex // serializes OnProgress callbacks
	total      int
	outcomes   map[int]explore.Outcome
	cached     int
	simulated  int
	estimated  int
	failed     int
	mergeSim   int
	paretoSize int
	lastPareto time.Time
	benchOrder []string
	backend    explore.Backend
	status     func() Status
	onProgress func(Progress)
}

// record notes one resolved point. Re-resolved points (a reclaimed shard's
// survivors, merge passes over worker results) are deduplicated by index —
// progress counts points, not attempts.
func (t *tracker) record(o explore.Outcome) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if _, seen := t.outcomes[o.Index]; !seen {
		t.outcomes[o.Index] = o
		switch {
		case o.Err != nil:
			t.failed++
		case o.Cached:
			t.cached++
		case o.Fidelity == explore.FidelityEstimate:
			t.estimated++
		case o.Result != nil:
			t.simulated++
		}
	}
	t.mu.Unlock()
	t.publish(false)
}

func (t *tracker) recordMergeSim() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.mergeSim++
	t.mu.Unlock()
	t.publish(false)
}

// publish streams a progress snapshot. The Pareto frontier is O(n²) in
// resolved points, so it recomputes at most every 200ms (always on the
// final snapshot).
func (t *tracker) publish(final bool) {
	if t == nil || t.onProgress == nil {
		return
	}
	st := t.status()
	// cbMu both serializes callbacks and keeps snapshots arriving in the
	// order they were taken.
	t.cbMu.Lock()
	defer t.cbMu.Unlock()
	t.mu.Lock()
	if final || time.Since(t.lastPareto) >= 200*time.Millisecond {
		t.paretoSize = t.computePareto()
		t.lastPareto = time.Now()
	}
	p := Progress{
		Total:          t.total,
		Done:           len(t.outcomes),
		Cached:         t.cached,
		Simulated:      t.simulated,
		Estimated:      t.estimated,
		Failed:         t.failed,
		MergeSimulated: t.mergeSim,
		Corrupt:        t.backend.Stats().Corrupt,
		ParetoSize:     t.paretoSize,
		Coordination:   st,
	}
	t.mu.Unlock()
	t.onProgress(p)
}

// computePareto sums per-benchmark frontier sizes under the default
// time/cost goals over the points resolved so far. Callers hold mu.
func (t *tracker) computePareto() int {
	byBench := map[string][]explore.Outcome{}
	for _, o := range t.outcomes {
		if o.Result != nil && o.Err == nil {
			byBench[o.Point.Benchmark] = append(byBench[o.Point.Benchmark], o)
		}
	}
	n := 0
	for _, bench := range t.benchOrder {
		n += len(explore.Pareto(byBench[bench]))
	}
	return n
}

// Run executes a coordinated, fault-tolerant exploration of the space:
// shards of the deterministic point enumeration are leased to opts.Workers
// workers that drain them through the shared store under heartbeat renewal;
// dead or stalled workers lose their leases and their shards re-queue; and
// a final merge pass (a plain Explore/ExploreTiered over the now-populated
// store) assembles the Exploration, re-simulating anything missing or
// corrupt. Because the merge is exactly the single-process path, a
// coordinated exploration yields byte-identical artifacts to an
// uncoordinated one over the same space — the resume contract extended to N
// workers, which the crash tests pin down.
//
// The returned Triage is nil unless opts.Tiered ran the space in two
// fidelity tiers. The error is ctx.Err() after a cancellation, otherwise
// the merge's first per-point failure, otherwise the first worker
// infrastructure failure (the merge completes the exploration even when
// workers die — worker errors then still surface so operators see the
// degradation).
func Run(ctx context.Context, space *explore.Space, opts Options) (*explore.Exploration, *explore.Triage, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Store == nil {
		return nil, nil, errors.New("coord: coordinated exploration requires a store backend (workers and the merge share results through it)")
	}
	pts, err := space.Points()
	if err != nil {
		return nil, nil, err
	}
	var plan *explore.BandPlan
	if opts.Tiered != nil {
		if plan, err = explore.PlanBand(space, *opts.Tiered); err != nil {
			return nil, nil, err
		}
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 4
	}
	shardSize := opts.ShardSize
	if shardSize <= 0 {
		shardSize = max(1, min(64, (len(pts)+workers*4-1)/(workers*4)))
	}
	var log *Log
	if opts.Events != nil {
		log = NewLog(opts.Events)
	}
	c := NewCoordinator(len(pts), CoordinatorOptions{ShardSize: shardSize, Events: log})
	cache := prim.NewBuildCache()
	track := &tracker{
		total:      len(pts),
		outcomes:   make(map[int]explore.Outcome, len(pts)),
		benchOrder: space.Benchmarks,
		backend:    opts.Store,
		status:     c.Snapshot,
		onProgress: opts.OnProgress,
	}

	errs := make([]error, workers)
	var wg sync.WaitGroup
	for id := range errs {
		w := &worker{
			name:  fmt.Sprintf("w%d", id),
			api:   localLease{c},
			ex:    explore.New(explore.Options{Parallelism: 1, Store: opts.Store, Cache: cache}),
			pts:   pts,
			plan:  plan,
			log:   log,
			poll:  20 * time.Millisecond,
			track: track,
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[id] = w.run(ctx)
		}()
	}
	wg.Wait()
	var workerErr error
	for _, werr := range errs {
		if werr != nil && !errors.Is(werr, context.Canceled) && workerErr == nil {
			workerErr = werr
		}
	}

	// The merge is the single-process exploration over the populated store:
	// every worker-finished point is a hit, anything missing or corrupt
	// re-simulates here, and the artifacts come out byte-identical to an
	// uncoordinated run — the store is the only source of truth.
	log.emit(Event{Type: EventMergeStart, Worker: "merge", Shard: -1, Point: -1})
	ex := explore.New(explore.Options{
		Parallelism: opts.Parallelism,
		Store:       opts.Store,
		Cache:       cache,
		OnOutcome: func(o explore.Outcome) {
			if !o.Cached && o.Result != nil && o.Err == nil {
				log.point(EventMergeSimulated, "merge", -1, o.Index, o.Key, nil)
				track.recordMergeSim()
			}
			track.record(o)
		},
	})
	var x *explore.Exploration
	var tri *explore.Triage
	if plan != nil {
		x, tri, err = ex.ExploreTiered(ctx, space, plan.Options)
	} else {
		x, err = ex.Explore(ctx, space)
	}
	log.emit(Event{Type: EventMergeDone, Worker: "merge", Shard: -1, Point: -1})
	track.publish(true)
	if err == nil {
		err = workerErr
	}
	return x, tri, err
}
