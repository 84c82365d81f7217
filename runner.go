package upim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/engine"
)

// Runner is the context-aware entry point for running PrIM workloads:
// construct one with functional options, then execute single points with
// Run, whole suites with RunSuite, or many (benchmark, config, #DPUs)
// points concurrently with Sweep. A Runner carries a build cache, so every
// unique kernel is assembled and linked once and reused across all its runs;
// all methods are safe for concurrent use and honour context cancellation.
type Runner struct {
	cfg         Config
	scale       Scale
	dpus        int
	parallelism int
	watchdog    uint64
	eng         *engine.Engine
}

// RunnerOption configures a Runner (or, inside a sweep Point, overrides one
// point's settings).
type RunnerOption func(*Runner) error

// WithConfig replaces the base hardware configuration (default: Table I).
// Apply it before options that edit individual fields.
func WithConfig(cfg Config) RunnerOption {
	return func(r *Runner) error {
		r.cfg = cfg
		return nil
	}
}

// WithDPUs sets the default number of DPUs per run (default: 1).
func WithDPUs(n int) RunnerOption {
	return func(r *Runner) error {
		if n <= 0 {
			return fmt.Errorf("upim: WithDPUs(%d): need at least one DPU", n)
		}
		r.dpus = n
		return nil
	}
}

// WithScale sets the dataset scale (default: ScaleSmall).
func WithScale(s Scale) RunnerOption {
	return func(r *Runner) error {
		r.scale = s
		return nil
	}
}

// WithMode selects the memory-system organisation (default: ModeScratchpad).
func WithMode(m Mode) RunnerOption {
	return func(r *Runner) error {
		r.cfg.Mode = m
		return nil
	}
}

// WithTasklets sets the tasklets launched per DPU (default: 16).
func WithTasklets(n int) RunnerOption {
	return func(r *Runner) error {
		if n <= 0 {
			return fmt.Errorf("upim: WithTasklets(%d): need at least one tasklet", n)
		}
		r.cfg.NumTasklets = n
		return nil
	}
}

// WithILP enables the additive Fig 12 ILP features: a subset of "DRSF"
// (D=forwarding, R=unified RF, S=2-way issue, F=700 MHz), or "base" for
// none. Each feature may appear at most once — "FF" would double the clock
// twice.
func WithILP(features string) RunnerOption {
	return func(r *Runner) error {
		features, err := config.ParseILP(features)
		if err != nil {
			return fmt.Errorf("upim: WithILP: %w", err)
		}
		r.cfg = r.cfg.WithILP(features)
		return nil
	}
}

// WithWatchdog bounds each launch's per-DPU cycles; exceeding it fails the
// run with ErrWatchdogExpired (0 = the 2e9-cycle default).
func WithWatchdog(cycles uint64) RunnerOption {
	return func(r *Runner) error {
		r.watchdog = cycles
		return nil
	}
}

// WithParallelism bounds how many sweep points execute concurrently
// (default: GOMAXPROCS).
func WithParallelism(n int) RunnerOption {
	return func(r *Runner) error {
		if n <= 0 {
			return fmt.Errorf("upim: WithParallelism(%d): need at least one worker", n)
		}
		r.parallelism = n
		return nil
	}
}

// NewRunner builds a Runner from the paper's Table I defaults plus the given
// options, validating the resulting configuration.
func NewRunner(opts ...RunnerOption) (*Runner, error) {
	r := &Runner{cfg: config.Default(), scale: ScaleSmall, dpus: 1}
	for _, opt := range opts {
		if err := opt(r); err != nil {
			return nil, err
		}
	}
	if err := r.cfg.Validate(); err != nil {
		return nil, err
	}
	r.eng = engine.New(r.parallelism)
	r.eng.SetWatchdog(r.watchdog)
	return r, nil
}

// Config returns the Runner's effective base configuration.
func (r *Runner) Config() Config { return r.cfg }

// Scale returns the Runner's dataset scale.
func (r *Runner) Scale() Scale { return r.scale }

// DPUs returns the Runner's default DPU count.
func (r *Runner) DPUs() int { return r.dpus }

// Parallelism returns the sweep worker-pool bound.
func (r *Runner) Parallelism() int { return r.eng.Parallelism() }

// CacheStats snapshots the Runner's build-cache counters: Builds/Links count
// actual kernel assemblies/links, Hits counts runs served from the cache.
func (r *Runner) CacheStats() CacheStats { return r.eng.CacheStats() }

// Point is one sweep point: a benchmark plus optional per-point overrides.
// Zero-valued fields inherit the Runner's defaults; Options are applied to a
// copy of the Runner, so a point may override any run setting (mode, ILP,
// scale, watchdog...) without affecting its siblings. WithParallelism is the
// one exception: the worker pool is a Runner-wide bound, so it has no
// per-point effect.
type Point struct {
	Benchmark string
	DPUs      int
	Tasklets  int
	Options   []RunnerOption
}

// SweepResult is one streamed sweep outcome. Index identifies the
// originating point in the Sweep input (results arrive in completion order).
type SweepResult struct {
	Point  Point
	Index  int
	Result *Result
	Err    error
}

// point resolves a sweep Point against the Runner's defaults.
func (r *Runner) point(p Point) (engine.Point, error) {
	c := *r
	for _, opt := range p.Options {
		if err := opt(&c); err != nil {
			return engine.Point{}, err
		}
	}
	if p.Tasklets > 0 {
		c.cfg.NumTasklets = p.Tasklets
	}
	dpus := c.dpus
	if p.DPUs > 0 {
		dpus = p.DPUs
	}
	return engine.Point{
		Benchmark: p.Benchmark,
		Config:    c.cfg,
		DPUs:      dpus,
		Scale:     c.scale,
		Watchdog:  c.watchdog,
	}, nil
}

// Run executes one benchmark with the Runner's settings and verifies its
// output against the host golden model. Errors match ErrUnknownBenchmark,
// ErrUnsupportedMode, ErrTooManyTasklets, ErrWatchdogExpired, or ctx.Err().
func (r *Runner) Run(ctx context.Context, name string) (*Result, error) {
	ep, err := r.point(Point{Benchmark: name})
	if err != nil {
		return nil, err
	}
	return r.eng.Run(ctx, ep)
}

// RunSuite executes the named benchmarks (all 16 when names is empty)
// concurrently and returns their results in input order. On failure the
// returned slice still holds every completed result; the error is the first
// failure in input order.
func (r *Runner) RunSuite(ctx context.Context, names ...string) ([]*Result, error) {
	if len(names) == 0 {
		names = Benchmarks()
	}
	pts := make([]Point, len(names))
	for i, n := range names {
		pts[i] = Point{Benchmark: n}
	}
	results := make([]*Result, len(names))
	errs := make([]error, len(names))
	for sr := range r.Sweep(ctx, pts) {
		results[sr.Index] = sr.Result
		errs[sr.Index] = sr.Err
	}
	for i, err := range errs {
		if err != nil {
			return results, err
		}
		if results[i] == nil {
			return results, ctx.Err()
		}
	}
	return results, nil
}

// Sweep executes every point concurrently on the Runner's bounded worker
// pool, sharing kernel builds through the Runner's cache, and streams
// results as points finish. The channel closes when all points are done or
// ctx is cancelled; after cancellation, queued points never start and the
// stream ends early. The caller must drain the channel or cancel ctx —
// abandoning it mid-stream (e.g. breaking out of the range on the first
// error with a background context) leaks the pool's goroutines.
func (r *Runner) Sweep(ctx context.Context, points []Point) <-chan SweepResult {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make(chan SweepResult)
	go func() {
		defer close(out)
		eps := make([]engine.Point, 0, len(points))
		idx := make([]int, 0, len(points))
		for i, p := range points {
			ep, err := r.point(p)
			if err != nil {
				select {
				case out <- SweepResult{Point: p, Index: i, Err: err}:
				case <-ctx.Done():
					return
				}
				continue
			}
			eps = append(eps, ep)
			idx = append(idx, i)
		}
		for o := range r.eng.Sweep(ctx, eps) {
			i := idx[o.Index]
			select {
			case out <- SweepResult{Point: points[i], Index: i, Result: o.Result, Err: o.Err}:
			case <-ctx.Done():
				return
			}
		}
	}()
	return out
}
