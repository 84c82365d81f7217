package machine_test

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

// TestGEMVFromGeometry derives one site's GEMV from machine.HBMPIM() alone
// and holds the model to it at every scale, in all-bank and in bank-group
// mode: an all-bank command moves one FP32 operand per MAC lane, so the peak
// is Lanes() MACs per command slot (tCCD_L all-bank, BankGroups × tCCD_S
// round-robin by bank group); the M×N matrix takes ⌈M·N·4 B / (banks ×
// ColumnBytes)⌉ commands and y its own writeback commands; each row holds
// RowBytes / ColumnBytes commands' worth of columns, so rows open
// ⌈commands / (RowBytes / ColumnBytes)⌉ times; and everything past the
// command slots is row activations plus the CAS tail.
func TestGEMVFromGeometry(t *testing.T) {
	const fp32 = 4
	ceil := func(a, b int) int { return (a + b - 1) / b }
	gemv, err := prim.ByName("GEMV")
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{machine.CommandAllBank, machine.CommandBankGroup} {
		d := machine.HBMPIM()
		d.CommandMode = mode
		banks := d.BankGroups * d.BanksPerGroup
		cmdBytes := banks * d.ColumnBytes
		if cmdBytes != d.Lanes()*fp32 {
			t.Fatalf("an all-bank command moves %d B, not one FP32 operand for each of %d lanes", cmdBytes, d.Lanes())
		}
		slot := d.TCCDL
		if mode == machine.CommandBankGroup {
			slot = d.BankGroups * d.TCCDS
		}
		peak := float64(d.Lanes()) / float64(slot) // 128/4 all-bank, 128/8 by bank group
		for _, scale := range []prim.Scale{prim.ScaleTiny, prim.ScaleSmall, prim.ScalePaper} {
			p, err := gemv.Params(scale)
			if err != nil {
				t.Fatal(err)
			}
			cmds := ceil(p.M*p.N*fp32, cmdBytes)
			wb := ceil(p.M*fp32, cmdBytes)
			perRow := d.RowBytes / d.ColumnBytes
			acts := ceil(cmds, perRow) + ceil(wb, perRow)
			r := run(t, engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: scale, Machine: d})
			st, dram := r.Stats, r.Stats.DRAM
			name := mode + "/" + scale.String()
			if st.Instructions != uint64(p.M*p.N) {
				t.Errorf("%s: %d MACs, want M·N = %d", name, st.Instructions, p.M*p.N)
			}
			if dram.ReadBursts != uint64(cmds*banks) || st.VectorIssues != uint64(cmds+wb) {
				t.Errorf("%s: %d read bursts and %d commands, want %d commands (+%d writeback) on %d banks",
					name, dram.ReadBursts, st.VectorIssues, cmds, wb, banks)
			}
			if got := dram.RowEmpty + dram.RowMisses; got != uint64(acts*banks) {
				t.Errorf("%s: %d row activations, want %d rows on %d banks", name, got, acts, banks)
			}
			if rate := float64(st.Instructions) / float64(st.Cycles); rate > peak {
				t.Errorf("%s: %.2f MACs per cycle beats the %.0f peak", name, rate, peak)
			}
			overhead := d.TRCD + (acts-1)*(d.TRP+d.TRCD) + d.TCL + d.TBL
			if want := uint64((cmds+wb)*slot + overhead); st.Cycles != want {
				t.Errorf("%s: %d cycles, want %d command slots of %d plus %d for rows and the tail",
					name, st.Cycles, cmds+wb, slot, overhead)
			}
		}
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
	if !errors.Is(err, machine.ErrTooManySites) || !strings.Contains(err.Error(), "exceed") {
		t.Fatalf("want ErrTooManySites naming the sites that exceed the channels, got %v", err)
	}
}

// TestRefusesUPMEMSettings: the model reads no Config field, so a run under
// any UPMEM setting but the defaults — here the cache memory mode, an ILP
// feature and a wider link — fails with ErrUnsupportedMode instead of
// returning the default configuration's result.
func TestRefusesUPMEMSettings(t *testing.T) {
	for name, set := range map[string]func(*config.Config){
		"cache": func(c *config.Config) { c.Mode = config.ModeCache },
		"ilp":   func(c *config.Config) { *c = c.WithILP("D") },
		"link":  func(c *config.Config) { c.LinkBytesPerCycle *= 4 },
	} {
		cfg := config.Default()
		set(&cfg)
		r, err := engine.New(1).Run(context.Background(),
			engine.Point{Benchmark: "GEMV", Config: cfg, DPUs: 1, Scale: prim.ScaleTiny, Machine: machine.HBMPIM()})
		if !errors.Is(err, prim.ErrUnsupportedMode) {
			t.Errorf("%s: want ErrUnsupportedMode, got result %v and error %v", name, r != nil, err)
		}
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
