package upim_test

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"

	"upim"
)

func tinyRunner(t *testing.T, opts ...upim.RunnerOption) *upim.Runner {
	t.Helper()
	r, err := upim.NewRunner(append([]upim.RunnerOption{
		upim.WithScale(upim.ScaleTiny),
		upim.WithTasklets(4),
	}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestRunnerDefaults(t *testing.T) {
	r, err := upim.NewRunner()
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	def := upim.DefaultConfig()
	if cfg.FreqMHz != def.FreqMHz || cfg.NumTasklets != def.NumTasklets || cfg.Mode != upim.ModeScratchpad {
		t.Fatalf("default runner config diverges from Table I: %+v", cfg)
	}
	if r.DPUs() != 1 || r.Scale() != upim.ScaleSmall {
		t.Fatalf("defaults: DPUs=%d scale=%v, want 1/small", r.DPUs(), r.Scale())
	}
	if r.Parallelism() <= 0 {
		t.Fatalf("parallelism must default positive, got %d", r.Parallelism())
	}
}

func TestRunnerOptionApplication(t *testing.T) {
	r, err := upim.NewRunner(
		upim.WithDPUs(4),
		upim.WithScale(upim.ScaleTiny),
		upim.WithMode(upim.ModeCache),
		upim.WithTasklets(8),
		upim.WithILP("DR"),
		upim.WithWatchdog(123),
		upim.WithParallelism(3),
	)
	if err != nil {
		t.Fatal(err)
	}
	cfg := r.Config()
	if r.DPUs() != 4 || r.Scale() != upim.ScaleTiny || cfg.Mode != upim.ModeCache ||
		cfg.NumTasklets != 8 || !cfg.Forwarding || !cfg.UnifiedRF || cfg.IssueWidth != 1 {
		t.Fatalf("options not applied: dpus=%d scale=%v cfg=%+v", r.DPUs(), r.Scale(), cfg)
	}
	if r.Parallelism() != 3 {
		t.Fatalf("parallelism = %d, want 3", r.Parallelism())
	}
	// "base" names the empty ladder rung, as on the ilp axis.
	base, err := upim.NewRunner(upim.WithILP("base"))
	if err != nil {
		t.Fatalf("WithILP(\"base\"): %v", err)
	}
	if base.Config() != upim.DefaultConfig() {
		t.Fatalf("WithILP(\"base\") changed the config: %+v", base.Config())
	}
}

func TestRunnerOptionErrors(t *testing.T) {
	cases := map[string]upim.RunnerOption{
		"zero DPUs":            upim.WithDPUs(0),
		"zero tasklets":        upim.WithTasklets(0),
		"bad ILP feature":      upim.WithILP("DX"),
		"repeated ILP feature": upim.WithILP("DRFF"),
		"zero parallelism":     upim.WithParallelism(0),
	}
	for name, opt := range cases {
		if _, err := upim.NewRunner(opt); err == nil {
			t.Errorf("%s: NewRunner must reject the option", name)
		}
	}
	// An invalid resulting config is caught at construction too.
	bad := upim.DefaultConfig()
	bad.WRAMBytes = 0
	if _, err := upim.NewRunner(upim.WithConfig(bad)); err == nil {
		t.Error("invalid config must fail NewRunner")
	}
}

func TestRunnerRunTypedErrors(t *testing.T) {
	r := tinyRunner(t)
	ctx := context.Background()
	if _, err := r.Run(ctx, "NOPE"); !errors.Is(err, upim.ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark: got %v, want ErrUnknownBenchmark", err)
	}
	simt := tinyRunner(t, upim.WithMode(upim.ModeSIMT), upim.WithTasklets(64))
	if _, err := simt.Run(ctx, "VA"); !errors.Is(err, upim.ErrUnsupportedMode) {
		t.Errorf("SIMT VA: got %v, want ErrUnsupportedMode", err)
	}
	// Every per-tasklet static is sized for 16 tasklets: one more must be
	// refused for every benchmark and memory mode, not overrun a buffer.
	for _, mode := range []upim.Mode{upim.ModeScratchpad, upim.ModeCache} {
		many := tinyRunner(t, upim.WithTasklets(17), upim.WithMode(mode))
		for _, name := range upim.Benchmarks() {
			if _, err := many.Run(ctx, name); !errors.Is(err, upim.ErrTooManyTasklets) {
				t.Errorf("%s %v at 17 tasklets: got %v, want ErrTooManyTasklets", name, mode, err)
			}
		}
	}
}

// TestRunnerScaleOutOfRange: a Scale past paper is an error naming the three
// scales. It used to simulate NW at paper sizes and stamp tables "scale?3".
func TestRunnerScaleOutOfRange(t *testing.T) {
	r, err := upim.NewRunner(upim.WithScale(upim.Scale(3)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(context.Background(), "NW"); err == nil || !strings.Contains(err.Error(), "want tiny, small or paper") {
		t.Fatalf("Run at scale 3: got %v, want an unknown-scale error", err)
	}
}

// TestRunnerSweep runs the acceptance sweep: 12 (benchmark x #DPUs) points
// concurrently, every point completing with a verified result, each unique
// kernel built exactly once, and the DPU-count override honoured per point.
func TestRunnerSweep(t *testing.T) {
	r := tinyRunner(t)
	benches := []string{"VA", "RED", "SEL", "TS"}
	dpuCounts := []int{1, 2, 4}
	var points []upim.Point
	for _, b := range benches {
		for _, d := range dpuCounts {
			points = append(points, upim.Point{Benchmark: b, DPUs: d})
		}
	}
	srs, err := r.Sweep(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	if len(srs) != len(points) {
		t.Fatalf("sweep returned %d slots, want %d", len(srs), len(points))
	}
	for i, sr := range srs {
		res := sr.Result
		if res.Benchmark != points[i].Benchmark || res.DPUs != points[i].DPUs {
			t.Fatalf("point %d: result (%s x%d) does not match point (%s x%d)",
				i, res.Benchmark, res.DPUs, points[i].Benchmark, points[i].DPUs)
		}
	}
	cs := r.CacheStats()
	if cs.Builds != int64(len(benches)) {
		t.Fatalf("sweep built %d kernels, want exactly %d (one per unique benchmark)", cs.Builds, len(benches))
	}
	if cs.Links != int64(len(benches)) {
		t.Fatalf("sweep linked %d programs, want %d (DPU count does not affect linking)", cs.Links, len(benches))
	}
	if cs.Hits == 0 {
		t.Fatal("sweep never hit the build cache")
	}
}

// TestRunnerSweepCacheAcrossCalls checks the cache persists across Run and
// Sweep invocations on the same Runner.
func TestRunnerSweepCacheAcrossCalls(t *testing.T) {
	r := tinyRunner(t)
	ctx := context.Background()
	res, err := r.Run(ctx, "VA")
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Instructions == 0 || res.Report.Total() <= 0 {
		t.Fatal("empty result")
	}
	if _, err := r.Run(ctx, "VA"); err != nil {
		t.Fatal(err)
	}
	if cs := r.CacheStats(); cs.Builds != 1 {
		t.Fatalf("two identical runs built %d kernels, want 1", cs.Builds)
	}
}

// TestRunnerSweepCancellation cancels mid-sweep: every point keeps its
// slot, the points that finished keep their results, and every point that
// did not carries ctx.Err().
func TestRunnerSweepCancellation(t *testing.T) {
	r := tinyRunner(t, upim.WithParallelism(1))
	var points []upim.Point
	for i := 0; i < 64; i++ {
		points = append(points, upim.Point{Benchmark: "VA", DPUs: 1 + i%2})
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		// The first build-cache hit is the second point starting, so the
		// first has finished.
		for r.CacheStats().Hits == 0 {
			runtime.Gosched()
		}
		cancel()
	}()
	srs, err := r.Sweep(ctx, points)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled sweep returned %v, want context.Canceled", err)
	}
	if len(srs) != len(points) {
		t.Fatalf("sweep returned %d slots, want %d", len(srs), len(points))
	}
	finished := 0
	for i, sr := range srs {
		if sr.Point.Benchmark != points[i].Benchmark || sr.Point.DPUs != points[i].DPUs {
			t.Fatalf("slot %d holds %+v, want %+v", i, sr.Point, points[i])
		}
		switch {
		case sr.Err == nil && sr.Result != nil:
			// One worker takes points in input order, so the finished
			// points are a prefix.
			if finished != i {
				t.Fatalf("slot %d finished after slot %d was cancelled", i, finished)
			}
			if sr.Result.DPUs != points[i].DPUs {
				t.Fatalf("slot %d result ran %d DPUs, want %d", i, sr.Result.DPUs, points[i].DPUs)
			}
			finished++
		case sr.Err != ctx.Err() || sr.Result != nil:
			t.Fatalf("slot %d: result %v, err %v; want a result or exactly ctx.Err()", i, sr.Result != nil, sr.Err)
		}
	}
	if finished == 0 || finished == len(points) {
		t.Fatalf("%d of %d points finished, want some but not all", finished, len(points))
	}
}

// TestRunnerSweepCancelledBeforeStart: a sweep whose context is already
// cancelled runs nothing; an option-resolution error still lands in its
// point's slot, every other slot carries ctx.Err(), and the returned error is
// the first in input order.
func TestRunnerSweepCancelledBeforeStart(t *testing.T) {
	r := tinyRunner(t, upim.WithParallelism(2))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var points []upim.Point
	for i := 0; i < 8; i++ {
		points = append(points, upim.Point{Benchmark: "VA"})
	}
	points = append(points, upim.Point{Benchmark: "VA", Options: []upim.RunnerOption{upim.WithILP("Z")}})
	srs, err := r.Sweep(ctx, points)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled sweep returned %v, want context.Canceled (slot 0's)", err)
	}
	if len(srs) != len(points) {
		t.Fatalf("sweep returned %d slots, want %d", len(srs), len(points))
	}
	for i, sr := range srs[:8] {
		if sr.Result != nil || sr.Err != ctx.Err() {
			t.Fatalf("slot %d: result %v, err %v; want exactly ctx.Err()", i, sr.Result != nil, sr.Err)
		}
	}
	if last := srs[8]; last.Err == nil || errors.Is(last.Err, context.Canceled) {
		t.Fatalf("bad-option slot carries %v, want its option error", last.Err)
	}
	if cs := r.CacheStats(); cs.Builds != 0 {
		t.Fatalf("pre-cancelled sweep built %d kernels, want 0", cs.Builds)
	}
}

// TestRunnerSweepPointWatchdogDefault: a point's WithWatchdog(0) restores the
// documented 2e9-cycle default even on a Runner with a tighter watchdog of
// its own, while a plain point inherits the Runner's.
func TestRunnerSweepPointWatchdogDefault(t *testing.T) {
	r := tinyRunner(t, upim.WithWatchdog(1000))
	points := []upim.Point{
		{Benchmark: "VA"},
		{Benchmark: "VA", Options: []upim.RunnerOption{upim.WithWatchdog(0)}},
	}
	got, _ := r.Sweep(context.Background(), points)
	if !errors.Is(got[0].Err, upim.ErrWatchdogExpired) {
		t.Fatalf("plain point on a 1000-cycle Runner returned %v, want ErrWatchdogExpired", got[0].Err)
	}
	if got[1].Err != nil || got[1].Result == nil {
		t.Fatalf("WithWatchdog(0) point returned %v, want the 2e9-cycle default to let it finish", got[1].Err)
	}
}

// TestRunnerSweepPointOverrides checks per-point option overrides apply to
// that point only.
func TestRunnerSweepPointOverrides(t *testing.T) {
	r := tinyRunner(t)
	points := []upim.Point{
		{Benchmark: "BS"},
		{Benchmark: "BS", Options: []upim.RunnerOption{upim.WithMode(upim.ModeCache)}},
		{Benchmark: "BS", Tasklets: 2},
	}
	srs, err := r.Sweep(context.Background(), points)
	if err != nil {
		t.Fatal(err)
	}
	got := []*upim.Result{srs[0].Result, srs[1].Result, srs[2].Result}
	if got[0].Mode != upim.ModeScratchpad || got[1].Mode != upim.ModeCache {
		t.Fatalf("mode override leaked: %v / %v", got[0].Mode, got[1].Mode)
	}
	if got[0].Tasklets != 4 || got[2].Tasklets != 2 {
		t.Fatalf("tasklet override wrong: %d / %d", got[0].Tasklets, got[2].Tasklets)
	}
	// A broken per-point option surfaces as that point's error.
	bad := []upim.Point{{Benchmark: "VA", Options: []upim.RunnerOption{upim.WithILP("Z")}}}
	if srs, err := r.Sweep(context.Background(), bad); err == nil || srs[0].Err != err {
		t.Fatalf("invalid per-point option returned %v, want it as the point's error", err)
	}
	// A per-point watchdog override applies to that point only.
	mixed := []upim.Point{
		{Benchmark: "VA"},
		{Benchmark: "VA", Options: []upim.RunnerOption{upim.WithWatchdog(10)}},
	}
	srs, _ = r.Sweep(context.Background(), mixed)
	if srs[0].Err != nil {
		t.Fatalf("default-watchdog point failed: %v", srs[0].Err)
	}
	if !errors.Is(srs[1].Err, upim.ErrWatchdogExpired) {
		t.Fatalf("10-cycle watchdog point returned %v, want ErrWatchdogExpired", srs[1].Err)
	}
}

func TestRunSuiteOrderingAndErrors(t *testing.T) {
	r := tinyRunner(t)
	names := []string{"TS", "VA", "BS"}
	results, err := r.RunSuite(context.Background(), names...)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(names) {
		t.Fatalf("suite returned %d results, want %d", len(results), len(names))
	}
	for i, res := range results {
		if res.Benchmark != names[i] {
			t.Fatalf("result %d is %s, want %s (input order)", i, res.Benchmark, names[i])
		}
	}
	if _, err := r.RunSuite(context.Background(), "VA", "NOPE"); !errors.Is(err, upim.ErrUnknownBenchmark) {
		t.Fatalf("suite with unknown benchmark: %v, want ErrUnknownBenchmark", err)
	}
}
