// Package engine is the concurrent sweep engine behind upim.Runner and the
// figure drivers: it executes many simulation points — (benchmark, config,
// #DPUs, scale) tuples — on a bounded worker pool, streams results as they
// finish, and shares one build cache so every unique kernel is assembled and
// linked exactly once per sweep, no matter how many points reuse it.
//
// Sweep-style characterization is the workhorse methodology of both the
// source paper and PrIM (Gómez-Luna et al.), so the engine is deliberately
// small and reusable: the public Runner facade, the internal/figures
// experiment drivers, and the commands all run on it.
package engine

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"upim/internal/config"
	"upim/internal/core"
	"upim/internal/machine"
	"upim/internal/prim"

	// The bank-level MAC backend registers itself with internal/machine;
	// importing it here makes every engine consumer architecture-capable
	// without naming the backend.
	_ "upim/internal/hbmpim"
)

// Point is one simulation point of a sweep.
type Point struct {
	Benchmark string
	Config    config.Config
	DPUs      int
	Scale     prim.Scale
	// Watchdog bounds this point's per-DPU launch cycles (0 = the engine's
	// watchdog, or the host default).
	Watchdog uint64
	// Machine selects the architecture backend the point runs on; nil is
	// the native cycle-exact UPMEM core. The description participates in
	// the point's content address, so cross-architecture explorations
	// dedupe and resume per machine.
	Machine *machine.Desc `json:",omitempty"`
}

// Outcome is the result of one point. Index identifies the originating
// point in the Sweep input slice (outcomes stream in completion order, not
// submission order).
type Outcome struct {
	Point  Point
	Index  int
	Result *prim.Result
	Err    error
}

// Engine runs simulation points concurrently with shared kernel builds.
type Engine struct {
	parallelism int
	watchdog    uint64
	cache       *prim.BuildCache
	// arenas is an explicit free list of DPU-shell arenas: every Run
	// borrows one for the duration of the point, so repeated runs on one
	// engine settle into allocation-free steady state while concurrent
	// runs still each hold their own (single-owner) arena. A plain list
	// rather than a sync.Pool because the GC empties pools every cycle,
	// and rebuilding an evicted shell costs thousands of allocations —
	// eviction jitter would defeat the steady state. The list is capped
	// at parallelism entries, bounding retained memory at the
	// peak-concurrency working set.
	arenaMu sync.Mutex
	arenas  []*core.Arena
}

// getArena pops a recycled DPU-shell arena, or builds a fresh one when the
// free list is empty.
func (e *Engine) getArena() *core.Arena {
	e.arenaMu.Lock()
	defer e.arenaMu.Unlock()
	if n := len(e.arenas); n > 0 {
		a := e.arenas[n-1]
		e.arenas[n-1] = nil
		e.arenas = e.arenas[:n-1]
		return a
	}
	return core.NewArena()
}

// putArena returns an arena to the free list, dropping it once the list
// already holds one arena per worker slot.
func (e *Engine) putArena(a *core.Arena) {
	e.arenaMu.Lock()
	defer e.arenaMu.Unlock()
	if len(e.arenas) < e.parallelism {
		e.arenas = append(e.arenas, a)
	}
}

// New returns an engine running at most parallelism points concurrently
// (<= 0 selects GOMAXPROCS).
func New(parallelism int) *Engine {
	return NewWithCache(parallelism, prim.NewBuildCache())
}

// NewWithCache returns an engine like New but backed by an existing build
// cache, so engines with different parallelism bounds can share kernel
// builds.
func NewWithCache(parallelism int, cache *prim.BuildCache) *Engine {
	if parallelism <= 0 {
		parallelism = runtime.GOMAXPROCS(0)
	}
	return &Engine{
		parallelism: parallelism,
		cache:       cache,
	}
}

// SetWatchdog bounds each launch's per-DPU cycles for all subsequent runs
// (0 restores the host default).
func (e *Engine) SetWatchdog(cycles uint64) { e.watchdog = cycles }

// Parallelism returns the worker-pool bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// CacheStats snapshots the shared build cache's counters.
func (e *Engine) CacheStats() prim.CacheStats { return e.cache.Stats() }

// Run executes a single point through the shared build cache, borrowing a
// DPU-shell arena from the engine's free list for the point's duration.
func (e *Engine) Run(ctx context.Context, p Point) (*prim.Result, error) {
	return e.RunInArena(ctx, p, nil)
}

// RunInArena executes a single point drawing DPU shells from arena (nil
// borrows one from the engine's free list for this point). The arena is
// single-owner: callers running a resident point loop — the pool workers of
// Each — hold one arena each and pass it to every run, which keeps
// steady-state execution free of per-point simulator allocations.
//
// The point's machine description selects the architecture backend; every
// backend receives the same uniform workload, so the UPMEM fast path and
// alternative architectures share this one dispatch site.
func (e *Engine) RunInArena(ctx context.Context, p Point, arena *core.Arena) (*prim.Result, error) {
	if arena == nil {
		arena = e.getArena()
		defer e.putArena(arena)
	}
	wd := e.watchdog
	if p.Watchdog > 0 {
		wd = p.Watchdog
	}
	arch := ""
	if p.Machine != nil {
		arch = p.Machine.Arch
	}
	be, err := machine.BackendFor(arch)
	if err != nil {
		return nil, err
	}
	return be.Run(ctx, machine.Workload{
		Benchmark: p.Benchmark,
		Config:    p.Config,
		Desc:      p.Machine,
		Sites:     p.DPUs,
		Scale:     p.Scale,
		Watchdog:  wd,
		Cache:     e.cache,
		Arena:     arena,
	})
}

// Each is the engine's one worker pool: it calls step(i, arena) for every i
// in [0, n) on at most Parallelism goroutines and returns once they have all
// finished. Indices are handed out in order; once ctx is cancelled no further
// index starts. Each worker holds one arena for the whole sweep and passes it
// to every step it runs, so a long sweep settles into allocation-free steady
// state. Delivering what a step produces is the step's own business.
func (e *Engine) Each(ctx context.Context, n int, step func(i int, arena *core.Arena)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(e.parallelism, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := e.getArena()
			defer e.putArena(arena)
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				step(i, arena)
			}
		}()
	}
	wg.Wait()
}

// Sweep executes every point on a bounded worker pool and streams outcomes
// as points finish. The channel closes once all points are done or the
// context is cancelled; after cancellation, no further points start, no
// further outcomes are delivered, and the stream ends early (SweepAll marks
// the undelivered points with ctx.Err()). The caller must drain the channel
// or cancel ctx — abandoning it mid-stream leaks the pool's goroutines.
func (e *Engine) Sweep(ctx context.Context, pts []Point) <-chan Outcome {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan Outcome)
	go func() {
		defer close(out)
		e.Each(ctx, len(pts), func(i int, arena *core.Arena) {
			res, err := e.RunInArena(ctx, pts[i], arena)
			// Unconditional ctx check first: a select alone could pick the
			// send over Done and deliver after cancellation.
			if ctx.Err() != nil {
				return
			}
			select {
			case out <- Outcome{Point: pts[i], Index: i, Result: res, Err: err}:
			case <-ctx.Done():
			}
		})
	}()
	return out
}

// SweepAll runs Sweep to completion and returns the outcomes reordered to
// match the input points (outcome i corresponds to pts[i]). The error is
// the first point failure in input order, or ctx.Err() if the sweep was
// cancelled; points skipped by cancellation carry ctx.Err() in their slot.
func (e *Engine) SweepAll(ctx context.Context, pts []Point) ([]Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]Outcome, len(pts))
	seen := make([]bool, len(pts))
	for o := range e.Sweep(ctx, pts) {
		outs[o.Index] = o
		seen[o.Index] = true
	}
	for i := range outs {
		if !seen[i] {
			outs[i] = Outcome{Point: pts[i], Index: i, Err: ctx.Err()}
		}
	}
	for i := range outs {
		if outs[i].Err != nil {
			return outs, outs[i].Err
		}
	}
	return outs, nil
}
