// Package engine is the worker pool and build cache behind every sweep:
// upim.Runner, the figure drivers, exploration, serving and calibration all
// run their points on Each, which bounds concurrency, while the shared build
// cache assembles and links every unique kernel exactly once, no matter how
// many points reuse it. DPU shells are the host's to recycle, not the
// engine's. SweepAll returns a sweep's outcomes as a slice in input order.
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
	"upim/internal/machine"
	"upim/internal/prim"
)

// Point is one simulation point of a sweep.
type Point struct {
	Benchmark string
	Config    config.Config
	DPUs      int
	Scale     prim.Scale
	// Watchdog bounds this point's per-DPU launch cycles (0 = the host
	// default).
	Watchdog uint64
	// Machine selects the architecture backend the point runs on; nil is
	// the native cycle-exact UPMEM core. The description participates in
	// the point's content address, so cross-architecture explorations
	// dedupe and resume per machine.
	Machine *machine.Desc `json:",omitempty"`
}

// Outcome is the result of one point.
type Outcome struct {
	Point  Point
	Result *prim.Result
	Err    error
}

// Engine runs simulation points concurrently with shared kernel builds.
type Engine struct {
	parallelism int
	cache       *prim.BuildCache
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

// Parallelism returns the worker-pool bound.
func (e *Engine) Parallelism() int { return e.parallelism }

// CacheStats snapshots the shared build cache's counters.
func (e *Engine) CacheStats() prim.CacheStats { return e.cache.Stats() }

// Run executes a single point through the shared build cache.
//
// The point's machine description selects the architecture backend; every
// backend receives the same uniform workload, so the UPMEM fast path and
// alternative architectures share this one dispatch site.
func (e *Engine) Run(ctx context.Context, p Point) (*prim.Result, error) {
	be, w, err := p.workload()
	if err != nil {
		return nil, err
	}
	w.Cache = e.cache
	return be.Run(ctx, w)
}

// Check reports whether the point's backend can run it (machine.Backend's
// Check): the explorer enumerates only the points it accepts.
func (p Point) Check() error {
	be, w, err := p.workload()
	if err != nil {
		return err
	}
	return be.Check(w)
}

// workload is the one place a point becomes the request its backend gets:
// the backend of the point's architecture and the workload, less the
// engine's build cache.
func (p Point) workload() (machine.Backend, machine.Workload, error) {
	arch := ""
	if p.Machine != nil {
		arch = p.Machine.Arch
	}
	be, err := machine.BackendFor(arch)
	return be, machine.Workload{
		Benchmark: p.Benchmark,
		Config:    p.Config,
		Desc:      p.Machine,
		Sites:     p.DPUs,
		Scale:     p.Scale,
		Watchdog:  p.Watchdog,
	}, err
}

// Each is the engine's one worker pool: it calls step(i) for every i in
// [0, n) on at most Parallelism goroutines and returns once they have all
// finished. Indices are handed out in order; once ctx is cancelled no further
// index starts. Delivering what a step produces is the step's own business.
func (e *Engine) Each(ctx context.Context, n int, step func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(e.parallelism, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				step(i)
			}
		}()
	}
	wg.Wait()
}

// SweepAll runs every point on Each and returns the outcomes in input order
// (outcome i corresponds to pts[i]). A point that finishes after ctx is
// cancelled is dropped, and every point that did not finish carries ctx.Err()
// in its slot. The error is the first point failure in input order, or
// ctx.Err() if the sweep was cancelled.
func (e *Engine) SweepAll(ctx context.Context, pts []Point) ([]Outcome, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	outs := make([]Outcome, len(pts))
	done := make([]bool, len(pts))
	e.Each(ctx, len(pts), func(i int) {
		res, err := e.Run(ctx, pts[i])
		if ctx.Err() == nil {
			outs[i], done[i] = Outcome{Point: pts[i], Result: res, Err: err}, true
		}
	})
	for i := range outs {
		if !done[i] {
			outs[i] = Outcome{Point: pts[i], Err: ctx.Err()}
		}
	}
	for i := range outs {
		if outs[i].Err != nil {
			return outs, outs[i].Err
		}
	}
	return outs, nil
}
