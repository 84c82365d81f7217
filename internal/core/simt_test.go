package core

import (
	"context"
	"encoding/binary"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/kbuild"
	"upim/internal/linker"
	"upim/internal/mem"
)

// simtStoreKernel: every lane stores id*3 (+100 for odd lanes, exercising
// divergence) into out[id] in MRAM.
func simtStoreKernel() *linker.Object {
	b := kbuild.New("simtstore")
	r0, r1, r2 := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	b.LoadArg(r0, 0) // out base (absolute MRAM)
	b.Lsli(r1, kbuild.ID, 2)
	b.Add(r0, r0, r1) // &out[id]
	b.Muli(r2, kbuild.ID, 3)
	// Divergence: odd lanes add 100.
	b.AndiBr(r1, kbuild.ID, 1, kbuild.CondZ, "even")
	b.Addi(r2, r2, 100)
	b.Label("even")
	b.Sw(r2, r0, 0)
	b.Stop()
	return b.MustBuild()
}

func simtConfig(n int) config.Config {
	cfg := config.Default()
	cfg.Mode = config.ModeSIMT
	cfg.NumTasklets = n
	cfg.SIMTWidth = 16
	return cfg
}

func TestSIMTExecutionWithDivergence(t *testing.T) {
	cfg := simtConfig(64)
	d := buildRun(t, simtStoreKernel(), cfg, func(d *DPU) {
		writeArgs(t, d, mem.MRAMBase+4096)
	})
	raw := make([]byte, 4*64)
	if err := d.MRAM().ReadBytes(4096, raw); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		want := uint32(i * 3)
		if i%2 == 1 {
			want += 100
		}
		if got := binary.LittleEndian.Uint32(raw[4*i:]); got != want {
			t.Fatalf("out[%d] = %d, want %d", i, got, want)
		}
	}
	st := d.Stats()
	if st.VectorIssues == 0 || st.Instructions <= st.VectorIssues {
		t.Fatalf("vector stats: %d issues, %d scalar instrs", st.VectorIssues, st.Instructions)
	}
}

// simtSumKernel: lane-strided sum over an MRAM array; each lane accumulates
// a[lane], a[lane+NTH], ... and stores its partial to out[id].
func simtSumKernel() *linker.Object {
	b := kbuild.New("simtsum")
	r0, r1, r2, r3, r4, r5 := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4), kbuild.R(5)
	b.LoadArg(r0, 0) // a base
	b.LoadArg(r1, 1) // n
	b.LoadArg(r2, 2) // out base
	b.Movi(r3, 0)    // sum
	b.Mov(r4, kbuild.ID)
	b.Label("loop")
	b.Jge(r4, r1, "done")
	b.Lsli(r5, r4, 2)
	b.Add(r5, r0, r5)
	b.Lw(r5, r5, 0)
	b.Add(r3, r3, r5)
	b.Add(r4, r4, kbuild.NTH)
	b.Jump("loop")
	b.Label("done")
	b.Lsli(r5, kbuild.ID, 2)
	b.Add(r5, r2, r5)
	b.Sw(r3, r5, 0)
	b.Stop()
	return b.MustBuild()
}

func simtSumRun(t *testing.T, coalesce bool) *DPU {
	t.Helper()
	cfg := simtConfig(32)
	cfg.SIMTCoalesce = coalesce
	const n = 2048
	data := make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(i%97))
	}
	return buildRun(t, simtSumKernel(), cfg, func(d *DPU) {
		if err := d.MRAM().WriteBytes(0, data); err != nil {
			t.Fatal(err)
		}
		writeArgs(t, d, mem.MRAMBase, n, mem.MRAMBase+1<<20)
	})
}

func TestSIMTCoalescingReducesRequestsAndTime(t *testing.T) {
	plain := simtSumRun(t, false)
	coal := simtSumRun(t, true)

	// Functional equivalence.
	want := make([]byte, 4*32)
	got := make([]byte, 4*32)
	if err := plain.MRAM().ReadBytes(1<<20, want); err != nil {
		t.Fatal(err)
	}
	if err := coal.MRAM().ReadBytes(1<<20, got); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatal("coalescing changed results")
		}
	}
	var sum uint32
	for i := 0; i < 32; i++ {
		sum += binary.LittleEndian.Uint32(got[4*i:])
	}
	var ref uint32
	for i := 0; i < 2048; i++ {
		ref += uint32(i % 97)
	}
	if sum != ref {
		t.Fatalf("sum = %d, want %d", sum, ref)
	}

	// Lane-strided word accesses coalesce ~4 lanes per 16B... with 8B bursts
	// two adjacent 4B lane accesses share a burst: expect about a 2x request
	// reduction and a real speedup.
	ps, cs := plain.Stats(), coal.Stats()
	if cs.CoalescedRequests >= ps.CoalescedRequests {
		t.Fatalf("coalescer did not reduce requests: %d vs %d", cs.CoalescedRequests, ps.CoalescedRequests)
	}
	ratio := float64(ps.CoalescedRequests) / float64(cs.CoalescedRequests)
	if ratio < 1.8 || ratio > 2.2 {
		t.Fatalf("request reduction = %.2fx, want ~2x for 4B lanes on 8B bursts", ratio)
	}
	if coal.Cycles() >= plain.Cycles() {
		t.Fatalf("coalescing not faster: %d vs %d cycles", coal.Cycles(), plain.Cycles())
	}
	// DRAM read traffic halves too.
	if cs.DRAM.BytesRead >= ps.DRAM.BytesRead {
		t.Fatal("coalescing must cut DRAM traffic")
	}
}

func TestSIMTMaxIPCBound(t *testing.T) {
	// Pure-compute kernel: with >= 11 warps the vector unit sustains close
	// to width scalar instructions per cycle.
	b := kbuild.New("simtalu")
	r0, r1 := kbuild.R(0), kbuild.R(1)
	b.Movi(r0, 2000)
	b.Movi(r1, 0)
	b.Label("loop")
	b.Addi(r1, r1, 1)
	b.AddiBr(r0, r0, -1, kbuild.CondNZ, "loop")
	b.Stop()
	obj := b.MustBuild()

	cfg := simtConfig(11 * 16) // 11 warps of 16
	d := buildRun(t, obj, cfg, nil)
	ipc := d.Stats().IPC()
	if ipc < 15 || ipc > 16 {
		t.Fatalf("SIMT IPC = %.2f, want ~16 with 11 warps", ipc)
	}
}

func TestSIMTRejectsDMAAndLocks(t *testing.T) {
	b := kbuild.New("simtdma")
	b.Movi(kbuild.R(0), int32(mem.MRAMBase))
	b.MoviSym(kbuild.R(1), b.Static("buf", 64, 8), 0)
	b.Ldmai(kbuild.R(1), kbuild.R(0), 64)
	b.Stop()
	cfg := simtConfig(16)
	d := buildDPU(t, b.MustBuild(), cfg, nil)
	err := d.Run(context.Background(), testWatchdog)
	if err == nil || !strings.Contains(err.Error(), "not supported by the SIMT") {
		t.Fatalf("err = %v, want SIMT DMA rejection", err)
	}
}

// TestSIMTMatchesScalarOnRegisterOps holds the vector engine to the scalar
// pipeline lane for lane (one interpreter, execute, serves both — this is
// what keeps it so): one program through every µop kind the vector engine
// runs, WRAM loads and stores included, must leave each tasklet with the same
// GPRs and the same retired-instruction count in scratchpad mode and as one
// 16-lane warp.
func TestSIMTMatchesScalarOnRegisterOps(t *testing.T) {
	b := kbuild.New("regops")
	r := kbuild.R
	b.Muli(r(0), kbuild.ID, 7)
	b.AndiBr(r(1), kbuild.ID, 1, kbuild.CondZ, "even") // ALU with a condition: odd lanes diverge
	b.Addi(r(0), r(0), 100)
	b.Label("even")
	b.Mov(r(2), r(0))
	b.Movi(r(3), 40)
	b.Jlt(r(2), r(3), "small") // Jcc, register operand
	b.Sub(r(2), r(2), r(3))
	b.Label("small")
	b.Jgei(r(2), 21, "big") // Jcc, immediate operand
	b.Lsli(r(2), r(2), 3)
	b.Label("big")
	// Loads and stores to WRAM, a word slot per tasklet: every width, with
	// the top bit set so the sign-extending loads differ from the others.
	b.MoviSym(r(8), b.Static("slots", 4*16, 8), 0)
	b.Lsli(r(9), kbuild.ID, 2)
	b.Add(r(8), r(8), r(9))
	b.Movi(r(9), -0x7f7f8000) // 0x80808000
	b.Or(r(9), r(9), r(2))
	b.Sw(r(9), r(8), 0)
	b.Lw(r(10), r(8), 0)
	b.Lb(r(11), r(8), 3)
	b.Lbu(r(12), r(8), 3)
	b.Lh(r(13), r(8), 2)
	b.Sb(kbuild.ID, r(8), 1)
	b.Sh(r(9), r(8), 2)
	b.Lhu(r(14), r(8), 0)
	b.Call("leaf")
	b.Perf(r(4), 0) // the cycle counter is where the engines differ by design:
	b.Movi(r(4), 0) // read it, then keep it out of the comparison
	b.Perf(r(5), 1)
	b.Perf(r(6), 2) // not a counter: reads zero
	b.Stop()
	b.Label("leaf")
	b.Xor(r(7), r(2), kbuild.ID)
	b.Ret() // JREG through r23
	obj := b.MustBuild()

	const tasklets = 16
	scalar := config.Default()
	scalar.NumTasklets = tasklets
	vector := simtConfig(tasklets)
	want, got := buildRun(t, obj, scalar, nil), buildRun(t, obj, vector, nil)
	if got.Stats().VectorIssues == 0 {
		t.Fatal("the SIMT run issued no vector instruction")
	}
	for i, w := range want.threads {
		g := got.threads[i]
		if g.regs != w.regs {
			t.Errorf("tasklet %d GPRs:\n simt   %v\n scalar %v", i, g.regs, w.regs)
		}
		if g.instret != w.instret {
			t.Errorf("tasklet %d retired %d instructions under SIMT, %d scalar", i, g.instret, w.instret)
		}
	}
}
