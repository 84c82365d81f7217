package core

import (
	"context"
	"math/rand"
	"testing"

	"upim/internal/config"
	"upim/internal/kbuild"
	"upim/internal/linker"
	"upim/internal/mem"
	"upim/internal/stats"
)

// randomKernel builds a terminating kernel whose hot loop mixes the
// scheduler's interesting cases — plain ALU, RF-conflicting reads, WRAM
// loads/stores, DMA, lock contention, and forward branches — with the mix
// drawn from seed. Every tasklet runs the same code (SPMD).
func randomKernel(r *rand.Rand, iters int32) *linker.Object {
	return modeKernel(r, iters, config.ModeScratchpad)
}

// modeKernel is randomKernel for any organisation, drawing the same mix; in
// the scratchpad organisation it is randomKernel draw for draw. What a mode
// does not define is replaced by its nearest relative: a DMA becomes an MRAM
// load or store (through the D-cache, or the vector unit's coalescer), and
// under SIMT, which has no atomic unit, a locked section becomes a branch on
// the lane's parity (divergence). SIMT gets room for 128 tasklets.
func modeKernel(r *rand.Rand, iters int32, mode config.Mode) *linker.Object {
	n, stride := 24, int32(2048)
	if mode == config.ModeSIMT {
		n, stride = 128, 8
	}
	b := kbuild.New("sched-rand")
	warr := b.Static("warr", 4*n, 8)
	dbuf := b.Static("dbuf", 64*n, 8)
	lock := b.AllocLock()
	r0 := kbuild.R(0) // loop counter
	r1, r2, r3, r4 := kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4)
	r6, r8, r9, r10 := kbuild.R(6), kbuild.R(8), kbuild.R(9), kbuild.R(10)

	// Preamble: &warr[id] in r6, per-tasklet WRAM DMA buffer in r8,
	// per-tasklet MRAM region in r9.
	b.MoviSym(r6, warr, 0)
	b.Lsli(r1, kbuild.ID, 2)
	b.Add(r6, r6, r1)
	b.MoviSym(r8, dbuf, 0)
	b.Lsli(r1, kbuild.ID, 6)
	b.Add(r8, r8, r1)
	b.Movi(r9, stride)
	b.Mul(r9, r9, kbuild.ID)
	b.Movi(r10, int32(mem.MRAMBase))
	b.Add(r9, r9, r10)
	b.Movi(r2, 3)
	b.Movi(r4, 5)

	b.Movi(r0, iters)
	b.Label("loop")
	for i, n := 0, 4+r.Intn(8); i < n; i++ {
		switch r.Intn(10) {
		case 0, 1, 2:
			b.Addi(r1, r1, int32(r.Intn(100)))
		case 3:
			b.Mul(r3, r1, r2)
		case 4:
			b.Add(r2, r2, r4) // even+even: RF conflict
		case 5:
			b.Sw(r1, r6, 0)
		case 6:
			b.Lw(r3, r6, 0)
		case 7:
			size := int32(8 << r.Intn(4)) // 8..64 bytes
			switch {
			case mode == config.ModeScratchpad:
				b.Ldmai(r8, r9, size)
			case size < 32:
				b.Lw(r3, r9, size)
			default:
				b.Sw(r1, r9, size)
			}
		case 8:
			if mode == config.ModeSIMT {
				join := b.Gensym("join")
				b.AndiBr(r3, kbuild.ID, 1, kbuild.CondZ, join)
				b.Addi(r1, r1, 7)
				b.Label(join)
				break
			}
			b.AcquireSpin(lock)
			b.Lw(r3, r6, 0)
			b.Release(lock)
		case 9:
			next := b.Gensym("fwd")
			b.AddiBr(r1, r1, 1, kbuild.CondNZ, next)
			b.Label(next)
		}
	}
	b.AddiBr(r0, r0, -1, kbuild.CondNZ, "loop")
	b.Stop()
	return b.MustBuild()
}

// checkSlotInvariants asserts the scheduler's accounting identities: every
// issue slot of every simulated cycle is accounted exactly once, either as
// an issued instruction or in one of the idle buckets.
func checkSlotInvariants(t *testing.T, st *stats.DPU, width int) {
	t.Helper()
	if want := float64(st.Cycles) * float64(width); st.IssueSlots != want {
		t.Fatalf("IssueSlots = %v, want cycles*width = %v", st.IssueSlots, want)
	}
	accounted := st.Issued
	for _, idle := range st.Idle {
		accounted += idle
	}
	if diff := accounted - st.IssueSlots; diff > 1e-6*st.IssueSlots || diff < -1e-6*st.IssueSlots {
		t.Fatalf("issued %v + idle %v does not account for %v issue slots (diff %g)",
			st.Issued, st.Idle, st.IssueSlots, diff)
	}
	var tlpCycles uint64
	for _, n := range st.TLPHist {
		tlpCycles += n
	}
	if tlpCycles != st.Cycles {
		t.Fatalf("TLP histogram covers %d cycles, want %d", tlpCycles, st.Cycles)
	}
}

// countersEqual compares two statistics records counter by counter.
func countersEqual(t *testing.T, a, b *stats.DPU, label string) {
	t.Helper()
	ca, cb := a.Counters(), b.Counters()
	if len(ca) != len(cb) {
		t.Fatalf("%s: counter lists differ in length: %d vs %d", label, len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].Name != cb[i].Name || ca[i].Value != cb[i].Value {
			t.Fatalf("%s: counter %s = %v vs %v", label, ca[i].Name, ca[i].Value, cb[i].Value)
		}
	}
}

// TestSchedulerInvariantsRandomKernels property-tests the event-driven
// scheduler: for random kernels across tasklet counts and ILP feature sets,
// IssueSlots == cycles x IssueWidth, the idle buckets exactly account for
// unissued slots, and simulating the same point twice yields identical
// counters.
func TestSchedulerInvariantsRandomKernels(t *testing.T) {
	tasklets := []int{1, 3, 16, 24}
	features := []string{"", "D", "R", "S", "DRSF"}
	for seed := int64(0); seed < 6; seed++ {
		r := rand.New(rand.NewSource(seed))
		obj := randomKernel(r, 40+int32(r.Intn(100)))
		cfg := config.Default()
		cfg.NumTasklets = tasklets[r.Intn(len(tasklets))]
		cfg = cfg.WithILP(features[r.Intn(len(features))])
		if r.Intn(2) == 0 {
			cfg.TimelineWindow = 64
		}

		run := func() *DPU { return buildRun(t, obj, cfg, nil) }
		d1 := run()
		checkSlotInvariants(t, d1.Stats(), cfg.IssueWidth)
		d2 := run()
		countersEqual(t, d1.Stats(), d2.Stats(), "repeat run")
	}
}

// TestSchedulerInvariantsCacheMode runs the slot-accounting identities under
// the cache-centric organisation (I-fetch stalls flow through the blocked
// accounting there).
func TestSchedulerInvariantsCacheMode(t *testing.T) {
	for _, n := range []int{1, 8, 16} {
		cfg := config.Default()
		cfg.Mode = config.ModeCache
		cfg.NumTasklets = n
		d := buildRun(t, cacheSumKernel(), cfg, func(d *DPU) {
			writeArgs(t, d, mem.MRAMBase, 2048)
		})
		checkSlotInvariants(t, d.Stats(), cfg.IssueWidth)
	}
}

// TestSchedulerInvariantsSIMT runs the identities on the vector engine
// (IssueSlots is one warp slot per cycle there).
func TestSchedulerInvariantsSIMT(t *testing.T) {
	for _, coalesce := range []bool{false, true} {
		d := simtSumRun(t, coalesce)
		checkSlotInvariants(t, d.Stats(), 1)
		d2 := simtSumRun(t, coalesce)
		countersEqual(t, d.Stats(), d2.Stats(), "SIMT repeat run")
	}
}

// TestTracePreallocated checks the TraceIssues fix: the trace backing array
// is presized from the watchdog bound, so tracing a kernel does not grow the
// slice through repeated reallocation (and the recorded issues still match
// the issued-instruction count).
func TestTracePreallocated(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 4
	cfg.TraceIssues = true
	obj := loopKernel(500)
	prog, err := linker.Link(obj, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(0, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	const watchdog = 100_000
	if err := d.Run(context.Background(), watchdog); err != nil {
		t.Fatal(err)
	}
	if got, want := uint64(len(d.Trace())), d.Stats().Instructions; got != want {
		t.Fatalf("trace has %d events, want %d issued instructions", got, want)
	}
	if c := cap(d.Trace()); uint64(c) < watchdog*uint64(cfg.IssueWidth) {
		t.Fatalf("trace capacity %d not presized from the %d-cycle watchdog", c, watchdog)
	}
}
