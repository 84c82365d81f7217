package prim

import (
	"testing"

	"upim/internal/config"
	"upim/internal/isa"
)

// TestSIMTGEMV verifies the Fig 11 kernel variant end to end: the SIMT
// vector engine with and without the address coalescer computes the same
// (verified) result, and coalescing strictly reduces memory requests.
func TestSIMTGEMV(t *testing.T) {
	results := map[bool]*Result{}
	for _, coalesce := range []bool{false, true} {
		cfg := config.Default()
		cfg.Mode = config.ModeSIMT
		cfg.NumTasklets = 8 * 16
		cfg.SIMTCoalesce = coalesce
		res, err := runPoint("GEMV", cfg, 1, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		results[coalesce] = res
	}
	plain, coal := results[false], results[true]
	if coal.Stats.CoalescedRequests >= plain.Stats.CoalescedRequests {
		t.Fatalf("AC did not reduce requests: %d vs %d",
			coal.Stats.CoalescedRequests, plain.Stats.CoalescedRequests)
	}
	if coal.Stats.Cycles >= plain.Stats.Cycles {
		t.Fatalf("AC not faster: %d vs %d cycles", coal.Stats.Cycles, plain.Stats.Cycles)
	}
	if plain.Stats.VectorIssues == 0 {
		t.Fatal("no vector issues recorded")
	}
}

// TestDeterminism: the simulator is fully deterministic — identical
// configurations produce identical cycle counts and statistics, even with
// DPUs simulated on parallel goroutines.
func TestDeterminism(t *testing.T) {
	run := func() *Result {
		cfg := config.Default()
		cfg.NumTasklets = 16
		res, err := runPoint("HST-L", cfg, 4, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Stats.Cycles != b.Stats.Cycles || a.Stats.Instructions != b.Stats.Instructions {
		t.Fatalf("non-deterministic: %d/%d vs %d/%d cycles/instructions",
			a.Stats.Cycles, a.Stats.Instructions, b.Stats.Cycles, b.Stats.Instructions)
	}
	if a.Stats.AcquireFail != b.Stats.AcquireFail {
		t.Fatalf("contention differs across runs: %d vs %d", a.Stats.AcquireFail, b.Stats.AcquireFail)
	}
}

// TestCharacterizationShapes pins per-benchmark microarchitectural
// signatures the paper's Section IV narrative depends on.
func TestCharacterizationShapes(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	get := func(name string) *Result {
		res, err := runPoint(name, cfg, 1, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("BS is memory bound with low TLP", func(t *testing.T) {
		bs := get("BS")
		_, mem, _, _ := bs.Stats.Breakdown()
		if mem < 0.4 {
			t.Errorf("BS idle(memory) = %.2f, want dominant", mem)
		}
		if avg := bs.Stats.AvgIssuable(); avg > 2 {
			t.Errorf("BS avg issuable = %.2f, want < 2 (Fig 7)", avg)
		}
	})
	t.Run("HST-L spends most instructions synchronizing", func(t *testing.T) {
		h := get("HST-L")
		mix := h.Stats.MixFractions()
		if mix[isa.ClassSync] < 0.3 {
			t.Errorf("HST-L sync fraction = %.2f", mix[isa.ClassSync])
		}
		if h.Stats.AcquireFail == 0 {
			t.Error("HST-L shows no lock contention")
		}
	})
	t.Run("GEMV suffers the odd-even RF hazard", func(t *testing.T) {
		g := get("GEMV")
		_, _, _, rf := g.Stats.Breakdown()
		if rf < 0.05 {
			t.Errorf("GEMV idle(RF) = %.3f, want visible structural hazard", rf)
		}
		mix := g.Stats.MixFractions()
		if mix[isa.ClassMulDiv] < 0.05 {
			t.Errorf("GEMV mul fraction = %.3f", mix[isa.ClassMulDiv])
		}
	})
	t.Run("streaming benchmarks DMA in bulk", func(t *testing.T) {
		va := get("VA")
		if va.Stats.DMABytes == 0 || va.Stats.DMAs == 0 {
			t.Fatal("VA recorded no DMA traffic")
		}
		if avg := float64(va.Stats.DMABytes) / float64(va.Stats.DMAs); avg < 256 {
			t.Errorf("VA average DMA = %.0f B, want coarse-grained staging", avg)
		}
	})
	t.Run("HST-S beats HST-L", func(t *testing.T) {
		if s, l := get("HST-S"), get("HST-L"); s.Stats.Cycles >= l.Stats.Cycles {
			t.Errorf("private histograms (%d cycles) should beat the mutex (%d)",
				s.Stats.Cycles, l.Stats.Cycles)
		}
	})
}

// TestScaleParams sanity-checks every benchmark's dataset ladder.
func TestScaleParams(t *testing.T) {
	for _, b := range Benchmarks() {
		tiny, small, paper := b.sizes[ScaleTiny], b.sizes[ScaleSmall], b.sizes[ScalePaper]
		weight := func(p Params) int {
			w := p.N + p.M*max(p.N, 1) + p.Queries
			return w
		}
		if !(weight(tiny) <= weight(small) && weight(small) <= weight(paper)) {
			t.Errorf("%s: scales not monotone: %d / %d / %d",
				b.Name, weight(tiny), weight(small), weight(paper))
		}
	}
}
