package hbmpim_test

import (
	"context"
	"errors"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
	"upim/internal/machine/machinetest"
	"upim/internal/prim"
)

// TestConformance runs the shared backend conformance suite against the
// bank-level MAC model across its supported benchmarks and a multi-site
// split.
func TestConformance(t *testing.T) {
	desc := machine.HBMPIM()
	cfg := config.Default()
	machinetest.Run(t, machine.ArchHBMPIM, []engine.Point{
		{Benchmark: "GEMV", Config: cfg, DPUs: 1, Scale: prim.ScaleTiny, Machine: desc},
		{Benchmark: "GEMV", Config: cfg, DPUs: 4, Scale: prim.ScaleTiny, Machine: desc},
		{Benchmark: "VA", Config: cfg, DPUs: 2, Scale: prim.ScaleTiny, Machine: desc},
		{Benchmark: "MLP", Config: cfg, DPUs: 2, Scale: prim.ScaleTiny, Machine: desc},
		{Benchmark: "RED", Config: cfg, DPUs: 3, Scale: prim.ScaleTiny, Machine: desc},
	})
}

func run(t *testing.T, p engine.Point) *prim.Result {
	t.Helper()
	r, err := engine.New(1).Run(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestResultShape(t *testing.T) {
	desc := machine.HBMPIM()
	r := run(t, engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 2, Scale: prim.ScaleTiny, Machine: desc})

	if r.Arch != machine.ArchHBMPIM {
		t.Errorf("Arch = %q, want %q", r.Arch, machine.ArchHBMPIM)
	}
	if r.DPUs != 2 || len(r.PerDPU) != 2 {
		t.Errorf("want 2 sites with per-site stats, got DPUs=%d len(PerDPU)=%d", r.DPUs, len(r.PerDPU))
	}
	if want := desc.PUsPerRank * desc.MACsPerPU; r.Tasklets != want {
		t.Errorf("Tasklets = %d, want the %d-lane site width", r.Tasklets, want)
	}
	if r.Config.FreqMHz != desc.DRAMFreqMHz {
		t.Errorf("result config runs at %d MHz, want the %d MHz command clock", r.Config.FreqMHz, desc.DRAMFreqMHz)
	}
	if err := r.Config.Validate(); err != nil {
		t.Errorf("result config does not validate: %v", err)
	}
	if r.Report.KernelSeconds <= 0 || r.Report.Launches != 1 {
		t.Errorf("implausible report: %+v", r.Report)
	}
	if r.Stats.Cycles == 0 || r.Stats.Instructions == 0 || r.Stats.DRAM.BytesRead == 0 {
		t.Errorf("empty counters: cycles=%d instr=%d bytesRead=%d",
			r.Stats.Cycles, r.Stats.Instructions, r.Stats.DRAM.BytesRead)
	}
	// GEMV tiny is M=128 rows by N=64 columns of FP32: the whole matrix
	// streams through the MAC banks exactly once.
	if want := uint64(128 * 64); r.Stats.Instructions != want {
		t.Errorf("Instructions = %d, want %d (one MAC per matrix element)", r.Stats.Instructions, want)
	}
	// Row bookkeeping must be self-consistent: every burst is a hit, a
	// miss or an empty-bank activation.
	d := r.Stats.DRAM
	if d.RowHits+d.RowMisses+d.RowEmpty != d.ReadBursts+d.WriteBursts {
		t.Errorf("row accounting leaks: hits %d + misses %d + empty %d != bursts %d",
			d.RowHits, d.RowMisses, d.RowEmpty, d.ReadBursts+d.WriteBursts)
	}
}

func TestMoreSitesNeverSlower(t *testing.T) {
	cfg := config.Default()
	prev := -1.0
	for _, sites := range []int{1, 2, 4, 8} {
		r := run(t, engine.Point{Benchmark: "GEMV", Config: cfg, DPUs: sites, Scale: prim.ScaleTiny, Machine: machine.HBMPIM()})
		k := r.Report.KernelSeconds
		if prev >= 0 && k > prev {
			t.Fatalf("kernel time grew with more sites: %d sites -> %.3g s (previous %.3g s)", sites, k, prev)
		}
		prev = k
	}
}

func TestBankGroupModeIsSlower(t *testing.T) {
	cfg := config.Default()
	all := machine.HBMPIM()
	grouped := machine.HBMPIM()
	grouped.CommandMode = machine.CommandBankGroup
	ra := run(t, engine.Point{Benchmark: "VA", Config: cfg, DPUs: 1, Scale: prim.ScaleTiny, Machine: all})
	rg := run(t, engine.Point{Benchmark: "VA", Config: cfg, DPUs: 1, Scale: prim.ScaleTiny, Machine: grouped})
	if rg.Report.KernelSeconds <= ra.Report.KernelSeconds {
		t.Fatalf("bank-group scheduling (%.3g s) should be slower than all-bank (%.3g s)",
			rg.Report.KernelSeconds, ra.Report.KernelSeconds)
	}
	if rg.Stats.DRAM.BytesRead != ra.Stats.DRAM.BytesRead {
		t.Fatalf("scheduling granularity must not change traffic: %d vs %d bytes",
			rg.Stats.DRAM.BytesRead, ra.Stats.DRAM.BytesRead)
	}
}

func TestUnsupportedBenchmark(t *testing.T) {
	_, err := engine.New(1).Run(context.Background(),
		engine.Point{Benchmark: "BFS", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny, Machine: machine.HBMPIM()})
	if !errors.Is(err, prim.ErrUnsupportedMode) {
		t.Fatalf("BFS has no bank-level mapping and should fail with ErrUnsupportedMode, got %v", err)
	}
}

// TestScaleOutOfRange: a Scale past paper is an error naming the three
// scales, not a run at paper sizes.
func TestScaleOutOfRange(t *testing.T) {
	_, err := engine.New(1).Run(context.Background(),
		engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: prim.Scale(3), Machine: machine.HBMPIM()})
	if err == nil || !strings.Contains(err.Error(), "want tiny, small or paper") {
		t.Fatalf("want an unknown-scale error, got %v", err)
	}
}

func TestTooManySites(t *testing.T) {
	d := machine.HBMPIM()
	_, err := engine.New(1).Run(context.Background(),
		engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: d.Channels + 1, Scale: prim.ScaleTiny, Machine: d})
	if err == nil || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("want a sites-exceed-channels error, got %v", err)
	}
}

func TestWatchdogTrips(t *testing.T) {
	p := engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny,
		Machine: machine.HBMPIM(), Watchdog: 1}
	_, err := engine.New(1).Run(context.Background(), p)
	if err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("want a watchdog error, got %v", err)
	}
}

func TestEnergyPricedUnderHBMPIMProfile(t *testing.T) {
	r := run(t, engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny, Machine: machine.HBMPIM()})
	rep := r.Energy(nil)
	if !strings.Contains(rep.Profile, "hbm-pim") {
		t.Fatalf("nil-profile energy priced under %q, want the hbm-pim default", rep.Profile)
	}
	if rep.TotalPJ() <= 0 {
		t.Fatalf("zero energy from populated counters")
	}
}
