package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"

	"upim/internal/config"
	"upim/internal/prim"
)

func tinyPoint(bench string, dpus, tasklets int) Point {
	cfg := config.Default()
	cfg.NumTasklets = tasklets
	return Point{Benchmark: bench, Config: cfg, DPUs: dpus, Scale: prim.ScaleTiny}
}

func TestSweepCompleteAndIndexed(t *testing.T) {
	e := New(4)
	pts := []Point{
		tinyPoint("VA", 1, 4),
		tinyPoint("VA", 2, 4),
		tinyPoint("RED", 1, 4),
		tinyPoint("RED", 4, 4),
	}
	outs, err := e.SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatal(err)
	}
	for i, o := range outs {
		if o.Result == nil {
			t.Fatalf("point %d has no result", i)
		}
		if o.Result.Benchmark != pts[i].Benchmark || o.Result.DPUs != pts[i].DPUs {
			t.Fatalf("outcome %d is (%s x%d), want (%s x%d)",
				i, o.Result.Benchmark, o.Result.DPUs, pts[i].Benchmark, pts[i].DPUs)
		}
	}
	if cs := e.CacheStats(); cs.Builds != 2 {
		t.Fatalf("built %d kernels, want 2 (VA, RED)", cs.Builds)
	}
}

// TestSweepBuildsOnceUnderContention hammers one kernel from many
// concurrent points: the singleflight cache must build it exactly once.
func TestSweepBuildsOnceUnderContention(t *testing.T) {
	e := New(8)
	var pts []Point
	for i := 0; i < 24; i++ {
		pts = append(pts, tinyPoint("VA", 1, 4))
	}
	if _, err := e.SweepAll(context.Background(), pts); err != nil {
		t.Fatal(err)
	}
	cs := e.CacheStats()
	if cs.Builds != 1 || cs.Links != 1 {
		t.Fatalf("24 identical points: %d builds, %d links; want 1 and 1", cs.Builds, cs.Links)
	}
	if cs.Hits < 23 {
		t.Fatalf("cache hits = %d, want >= 23", cs.Hits)
	}
}

func TestSweepPointErrorDoesNotPoisonOthers(t *testing.T) {
	e := New(2)
	pts := []Point{
		tinyPoint("VA", 1, 4),
		tinyPoint("NOPE", 1, 4),
		tinyPoint("RED", 1, 4),
	}
	outs, err := e.SweepAll(context.Background(), pts)
	if !errors.Is(err, prim.ErrUnknownBenchmark) {
		t.Fatalf("sweep error = %v, want ErrUnknownBenchmark", err)
	}
	if outs[0].Err != nil || outs[2].Err != nil {
		t.Fatalf("healthy points failed: %v / %v", outs[0].Err, outs[2].Err)
	}
	if outs[1].Err == nil {
		t.Fatal("bad point must carry its error")
	}
}

func TestSweepAllMarksSkippedPoints(t *testing.T) {
	e := New(1)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	pts := []Point{tinyPoint("VA", 1, 4), tinyPoint("RED", 1, 4)}
	outs, err := e.SweepAll(ctx, pts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled SweepAll error = %v, want context.Canceled", err)
	}
	for i, o := range outs {
		if !errors.Is(o.Err, context.Canceled) {
			t.Fatalf("skipped point %d error = %v, want context.Canceled", i, o.Err)
		}
	}
}

func TestParallelismDefaults(t *testing.T) {
	if p := New(0).Parallelism(); p != runtime.GOMAXPROCS(0) {
		t.Fatalf("New(0) parallelism = %d, want GOMAXPROCS (%d)", p, runtime.GOMAXPROCS(0))
	}
	if p := New(3).Parallelism(); p != 3 {
		t.Fatalf("New(3) parallelism = %d, want 3", p)
	}
}

// TestProgramCacheKeying checks that link-relevant config changes miss the
// program cache while irrelevant ones hit it.
func TestProgramCacheKeying(t *testing.T) {
	e := New(2)
	base := tinyPoint("VA", 1, 4)
	ilp := base
	ilp.Config = ilp.Config.WithILP("DRF") // freq/forwarding don't affect linking
	moreTasklets := tinyPoint("VA", 1, 8)  // stack carve-out does
	if _, err := e.SweepAll(context.Background(), []Point{base, ilp, moreTasklets}); err != nil {
		t.Fatal(err)
	}
	cs := e.CacheStats()
	if cs.Builds != 1 {
		t.Fatalf("one benchmark+mode must build once, got %d", cs.Builds)
	}
	if cs.Links != 2 {
		t.Fatalf("expected 2 links (tasklet change relinks, ILP does not), got %d", cs.Links)
	}
}
