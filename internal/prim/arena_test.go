package prim

import (
	"context"
	"reflect"
	"testing"

	"upim/internal/config"
)

// TestArenaSweepSteadyStateBitIdentical is the correctness gate for DPU-shell
// reuse. Every system draws its shells from the host's process-wide free
// list, so each checked point is run once, then again after an interleaved
// history that recycles the same shells through other shapes — as a sweep's
// point stream would — and the reruns must reproduce the first run's
// statistics counters, energy breakdown and per-DPU records bit for bit. The
// history holds another benchmark, cache mode, an MMU point (its demand
// faults write high in MRAM) and points on more DPUs than the checked ones.
// The first run draws whatever shells the list holds: fresh ones when this
// test runs first in its binary, as it does by default; the stats goldens
// hold pooled runs to the committed statistics either way.
func TestArenaSweepSteadyStateBitIdentical(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	ccfg := cfg
	ccfg.Mode = config.ModeCache
	mmu := cfg
	mmu.MMU.Enable = true
	mmu.MMU.Prefault = false
	cache := NewBuildCache()
	run := func(sp Spec) *Result {
		t.Helper()
		sp.Scale, sp.Cache = ScaleTiny, cache
		res, err := RunSpec(context.Background(), sp)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	checked := []Spec{
		{Benchmark: "VA", Config: cfg, DPUs: 2},
		{Benchmark: "VA", Config: mmu, DPUs: 2},
		{Benchmark: "HST-S", Config: ccfg, DPUs: 2},
	}
	first := make([]*Result, len(checked))
	for i, sp := range checked {
		first[i] = run(sp)
	}
	history := []Spec{
		{Benchmark: "BS", Config: cfg, DPUs: 1},
		{Benchmark: "VA", Config: ccfg, DPUs: 2},
		{Benchmark: "RED", Config: cfg, DPUs: 4},
		{Benchmark: "GEMV", Config: mmu, DPUs: 3},
		{Benchmark: "SCAN-RSS", Config: ccfg, DPUs: 1},
		{Benchmark: "HST-L", Config: cfg, DPUs: 8},
	}
	for round := 0; round < 20; round++ {
		for _, sp := range history {
			run(sp)
		}
		for i, sp := range checked {
			got, want := run(sp), first[i]
			if !reflect.DeepEqual(got.Stats.Counters(), want.Stats.Counters()) {
				t.Fatalf("round %d, %s %v: counters diverge from the first run", round, sp.Benchmark, sp.Config.Mode)
			}
			if !reflect.DeepEqual(got.Energy(nil), want.Energy(nil)) {
				t.Fatalf("round %d, %s %v: energy breakdown diverges from the first run", round, sp.Benchmark, sp.Config.Mode)
			}
			if !reflect.DeepEqual(got.PerDPU, want.PerDPU) {
				t.Fatalf("round %d, %s %v: per-DPU statistics diverge from the first run", round, sp.Benchmark, sp.Config.Mode)
			}
		}
	}
}

// TestBatchedLaunchManyDPUs drives the host's batched multi-goroutine launch
// path with enough DPUs that every worker takes a multi-DPU range; under
// `go test -race` this doubles as the data-race gate for DPU batching and
// shell release.
func TestBatchedLaunchManyDPUs(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 4
	for i := 0; i < 3; i++ {
		if _, err := RunSpec(context.Background(), Spec{
			Benchmark: "VA", Config: cfg, DPUs: 32, Scale: ScaleTiny,
		}); err != nil {
			t.Fatal(err)
		}
	}
}
