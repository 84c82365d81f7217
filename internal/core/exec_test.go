package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"upim/internal/config"
	"upim/internal/isa"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// aluOp computes an RRR/RRI arithmetic result with one switch over the
// opcode, apart from execute's per-opcode cases: it is the model
// TestQuickALUAgainstInterpreter holds them to.
func aluOp(op isa.Opcode, a, b uint32) uint32 {
	switch op {
	case isa.OpADD:
		return a + b
	case isa.OpSUB:
		return a - b
	case isa.OpAND:
		return a & b
	case isa.OpOR:
		return a | b
	case isa.OpXOR:
		return a ^ b
	case isa.OpLSL:
		return a << (b & 31)
	case isa.OpLSR:
		return a >> (b & 31)
	case isa.OpASR:
		return uint32(int32(a) >> (b & 31))
	case isa.OpMUL:
		return uint32(int32(a) * int32(b))
	case isa.OpMULH:
		return uint32(uint64(int64(int32(a))*int64(int32(b))) >> 32)
	case isa.OpDIV:
		return uint32(divSigned(int32(a), int32(b)))
	case isa.OpREM:
		return uint32(remSigned(int32(a), int32(b)))
	default:
		panic(fmt.Sprintf("core: aluOp on %s", op))
	}
}

// TestQuickALUAgainstInterpreter cross-checks the DPU's functional execution
// of random straight-line ALU programs against a direct Go evaluation by
// aluOp, which the interpreter does not call — the core of the simulator's
// "functional correctness" claim, property-tested.
func TestQuickALUAgainstInterpreter(t *testing.T) {
	ops := []isa.Opcode{
		isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpLSL, isa.OpLSR, isa.OpASR, isa.OpMUL, isa.OpMULH,
		isa.OpDIV, isa.OpREM,
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		b := kbuild.New("alurand")
		out := b.Static("out", 8*4, 8)

		// Model register file (r0..r7 used for data).
		model := make([]uint32, 8)
		for i := range model {
			v := r.Uint32()
			model[i] = v
			b.Movi(kbuild.R(i), int32(v))
		}
		for i := 0; i < 60; i++ {
			op := ops[r.Intn(len(ops))]
			rd, ra, rb := r.Intn(8), r.Intn(8), r.Intn(8)
			if r.Intn(3) == 0 {
				// Exercise compare-and-branch; taken or not, the target is
				// the next instruction, so the data flow is unchanged.
				next := b.Gensym("next")
				b.Bri(isa.OpJEQ, kbuild.R(ra), 0, next)
				b.Label(next)
			}
			switch op {
			case isa.OpLSL, isa.OpLSR, isa.OpASR:
				// Bounded shift amounts through a register.
				b.Andi(kbuild.R(rb), kbuild.R(rb), 31)
				model[rb] &= 31
			}
			b.Add(kbuild.R(rd), kbuild.R(ra), kbuild.Zero) // copy for MOV coverage
			model[rd] = model[ra]
			in := isa.Instruction{Op: op, Rd: isa.RegID(rd), Ra: isa.RegID(ra), Rb: isa.RegID(rb)}
			switch op {
			case isa.OpADD:
				b.Add(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpSUB:
				b.Sub(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpAND:
				b.And(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpOR:
				b.Or(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpXOR:
				b.Xor(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpLSL:
				b.Lsl(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpLSR:
				b.Lsr(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpASR:
				b.Asr(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpMUL:
				b.Mul(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpMULH:
				b.Mulh(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpDIV:
				b.Div(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			case isa.OpREM:
				b.Rem(kbuild.R(rd), kbuild.R(ra), kbuild.R(rb))
			}
			_ = in
			model[rd] = aluOp(op, model[ra], model[rb])
		}
		// Dump the model registers to WRAM.
		for i := 0; i < 8; i++ {
			b.MoviSym(kbuild.R(8), out, int32(4*i))
			b.Sw(kbuild.R(i), kbuild.R(8), 0)
		}
		b.Stop()

		cfg := config.Default()
		cfg.NumTasklets = 1
		prog, err := linker.Link(b.MustBuild(), cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		d, err := New(0, prog, cfg)
		if err != nil {
			t.Log(err)
			return false
		}
		if err := d.Run(context.Background(), 1_000_000); err != nil {
			t.Log(err)
			return false
		}
		addr, _ := prog.SymbolAddr("out")
		for i := 0; i < 8; i++ {
			v, err := d.WRAM().Load(addr+uint32(4*i), 4)
			if err != nil {
				return false
			}
			if v != model[i] {
				t.Logf("seed %d: r%d = %#x, the model says %#x", seed, i, v, model[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestFrequencyScalingHalvesTime checks the "F" feature end to end: the
// same kernel at 700 MHz takes the same cycles for pure compute but half
// the wall-clock time.
func TestFrequencyScalingHalvesTime(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	base := buildRun(t, loopKernel(2000), cfg, nil)

	fast := cfg.WithILP("F")
	df := buildRun(t, loopKernel(2000), fast, nil)
	if df.Cycles() != base.Cycles() {
		t.Fatalf("pure-compute cycles changed with frequency: %d vs %d", df.Cycles(), base.Cycles())
	}
	tb := cfg.CyclesToSeconds(base.Cycles())
	tf := fast.CyclesToSeconds(df.Cycles())
	if tf >= tb*0.51 || tf <= tb*0.49 {
		t.Fatalf("700MHz time = %g, want half of %g", tf, tb)
	}
}

// TestFrequencyScalingMemoryBound checks that doubling the DPU clock does
// NOT halve the time of a DMA-bound kernel: DRAM timings are fixed in
// nanoseconds, so the memory-bound region grows in cycles (the Fig 12
// observation that F helps compute-bound workloads only).
func TestFrequencyScalingMemoryBound(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	base := buildRun(t, dmaKernel(8), cfg, func(d *DPU) {
		writeArgs(t, d, 0x08000000)
	})
	fast := cfg.WithILP("F")
	df := buildRun(t, dmaKernel(8), fast, func(d *DPU) {
		writeArgs(t, d, 0x08000000)
	})
	tb := cfg.CyclesToSeconds(base.Cycles())
	tf := fast.CyclesToSeconds(df.Cycles())
	if tf < tb*0.9 {
		t.Fatalf("DMA-bound kernel sped up %.2fx from frequency alone; the link should cap it", tb/tf)
	}
}

// TestLinkBandwidthScaling checks the Fig 13 knob: a streaming DMA kernel
// speeds up with a wider MRAM-to-WRAM link.
func TestLinkBandwidthScaling(t *testing.T) {
	times := map[int]uint64{}
	for _, scale := range []int{1, 2, 4} {
		cfg := config.Default()
		cfg.NumTasklets = 16
		cfg.LinkBytesPerCycle = 2 * scale
		d := buildRun(t, dmaKernel(8), cfg, func(d *DPU) {
			writeArgs(t, d, 0x08000000)
		})
		times[scale] = d.Cycles()
	}
	if !(times[2] < times[1] && times[4] < times[2]) {
		t.Fatalf("link scaling not monotone: %v", times)
	}
	if sp := float64(times[1]) / float64(times[2]); sp < 1.4 {
		t.Fatalf("x2 link speedup = %.2f, want >= 1.4 for a streaming kernel", sp)
	}
}

// TestRefreshSlowsMemory checks the refresh ablation: with the link widened
// so the bank is the bottleneck, enabling tREFI/tRFC refresh makes a
// DMA-heavy kernel strictly slower. (At the default 2 B/cycle link the
// refresh stalls hide completely behind link serialization — the bank has
// 3.4x headroom — which the default-config assertion below pins down.)
func TestRefreshSlowsMemory(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	cfg.LinkBytesPerCycle = 16 // bank-bound
	base := buildRun(t, dmaKernel(16), cfg, func(d *DPU) {
		writeArgs(t, d, 0x08000000)
	})
	rcfg := cfg
	rcfg.RefreshEnable = true
	refreshed := buildRun(t, dmaKernel(16), rcfg, func(d *DPU) {
		writeArgs(t, d, 0x08000000)
	})
	if refreshed.Stats().DRAM.Refreshes == 0 {
		t.Fatal("no refreshes recorded")
	}
	if refreshed.Cycles() <= base.Cycles() {
		t.Fatalf("refresh did not slow the kernel: %d vs %d", refreshed.Cycles(), base.Cycles())
	}

	// With the default narrow link, refresh hides behind serialization.
	dcfg := config.Default()
	dcfg.NumTasklets = 16
	db := buildRun(t, dmaKernel(16), dcfg, func(d *DPU) {
		writeArgs(t, d, 0x08000000)
	})
	dr := dcfg
	dr.RefreshEnable = true
	dbr := buildRun(t, dmaKernel(16), dr, func(d *DPU) {
		writeArgs(t, d, 0x08000000)
	})
	if slow := float64(dbr.Cycles()) / float64(db.Cycles()); slow > 1.02 {
		t.Fatalf("link-bound stream slowed %.3fx by refresh; stalls should hide", slow)
	}
}

// TestFCFSvsFRFCFS checks the memory-scheduler ablation: FR-FCFS beats
// strict FCFS when many tasklets stream disjoint regions (row locality).
func TestFCFSvsFRFCFS(t *testing.T) {
	run := func(frfcfs bool) uint64 {
		cfg := config.Default()
		cfg.NumTasklets = 16
		cfg.MemSchedulerFRFCFS = frfcfs
		d := buildRun(t, dmaKernel(8), cfg, func(d *DPU) {
			writeArgs(t, d, 0x08000000)
		})
		return d.Cycles()
	}
	fr, fcfs := run(true), run(false)
	if fr > fcfs {
		t.Fatalf("FR-FCFS (%d cycles) should not lose to FCFS (%d cycles)", fr, fcfs)
	}
}
