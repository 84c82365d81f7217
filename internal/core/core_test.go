package core

import (
	"context"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/kbuild"
	"upim/internal/linker"
	"upim/internal/mem"
	"upim/internal/stats"
)

const testWatchdog = 50_000_000

// buildRun links obj under cfg, applies setup, runs, and returns the DPU.
func buildRun(t *testing.T, obj *linker.Object, cfg config.Config, setup func(*DPU)) *DPU {
	t.Helper()
	d := buildDPU(t, obj, cfg, setup)
	if err := d.Run(context.Background(), testWatchdog); err != nil {
		t.Fatalf("Run: %v", err)
	}
	return d
}

func buildDPU(t *testing.T, obj *linker.Object, cfg config.Config, setup func(*DPU)) *DPU {
	t.Helper()
	prog, err := linker.Link(obj, cfg)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	d, err := New(0, prog, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if setup != nil {
		setup(d)
	}
	return d
}

// writeArgs writes 32-bit argument words at WRAM offset 0.
func writeArgs(t *testing.T, d *DPU, args ...uint32) {
	t.Helper()
	buf := make([]byte, 4*len(args))
	for i, a := range args {
		binary.LittleEndian.PutUint32(buf[4*i:], a)
	}
	if err := d.WRAM().WriteBytes(0, buf); err != nil {
		t.Fatal(err)
	}
}

func u32s(t *testing.T, raw []byte) []uint32 {
	t.Helper()
	out := make([]uint32, len(raw)/4)
	for i := range out {
		out[i] = binary.LittleEndian.Uint32(raw[4*i:])
	}
	return out
}

// counterKernel: each tasklet computes id*2+1 and stores it to out[id].
func counterKernel() *linker.Object {
	b := kbuild.New("counter")
	out := b.Static("out", 4*24, 8)
	r0, r1 := kbuild.R(0), kbuild.R(1)
	b.MoviSym(r0, out, 0)
	b.Lsli(r1, kbuild.ID, 2)
	b.Add(r0, r0, r1) // &out[id]
	b.Lsli(r1, kbuild.ID, 1)
	b.Addi(r1, r1, 1) // id*2+1
	b.Sw(r1, r0, 0)
	b.Stop()
	return b.MustBuild()
}

func TestSPMDExecution(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 24
	d := buildRun(t, counterKernel(), cfg, nil)
	addr, err := d.Program().SymbolAddr("out")
	if err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 4*24)
	if err := d.WRAM().ReadBytes(addr, raw); err != nil {
		t.Fatal(err)
	}
	for i, v := range u32s(t, raw) {
		if v != uint32(i*2+1) {
			t.Errorf("out[%d] = %d, want %d", i, v, i*2+1)
		}
	}
	if d.Stats().Instructions != 24*7 {
		t.Errorf("instructions = %d, want %d", d.Stats().Instructions, 24*7)
	}
}

// loopKernel runs `iters` independent ALU instructions per tasklet.
func loopKernel(iters int32) *linker.Object {
	b := kbuild.New("loop")
	r0, r1 := kbuild.R(0), kbuild.R(1)
	b.Movi(r0, iters)
	b.Movi(r1, 0)
	b.Label("loop")
	// add r1, r1, 1 then decrement-and-branch: mixed parity sources, no RF
	// conflicts (r1/imm and r0/imm).
	b.Addi(r1, r1, 1)
	b.AddiBr(r0, r0, -1, kbuild.CondNZ, "loop")
	b.Stop()
	return b.MustBuild()
}

func TestRevolverSingleThreadIPC(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 1
	d := buildRun(t, loopKernel(5000), cfg, nil)
	ipc := d.Stats().IPC()
	want := 1.0 / float64(cfg.RevolverCycles)
	if ipc < want*0.95 || ipc > want*1.05 {
		t.Fatalf("single-thread IPC = %.4f, want ~%.4f (1/revolver)", ipc, want)
	}
	// All idle slots must be revolver-attributed.
	if d.Stats().Idle[stats.IdleMemory] != 0 || d.Stats().Idle[stats.IdleRF] != 0 {
		t.Fatalf("idle breakdown = %+v", d.Stats().Idle)
	}
}

func TestElevenThreadsSaturatePipeline(t *testing.T) {
	for _, n := range []int{11, 16, 24} {
		cfg := config.Default()
		cfg.NumTasklets = n
		d := buildRun(t, loopKernel(2000), cfg, nil)
		if ipc := d.Stats().IPC(); ipc < 0.97 {
			t.Errorf("%d threads: IPC = %.3f, want ~1.0", n, ipc)
		}
	}
}

func TestRevolverInvariantInTrace(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 4
	cfg.TraceIssues = true
	d := buildRun(t, loopKernel(500), cfg, nil)
	last := map[int]uint64{}
	seen := map[int]bool{}
	for _, ev := range d.Trace() {
		if seen[ev.Tasklet] {
			if gap := ev.Cycle - last[ev.Tasklet]; gap < uint64(cfg.RevolverCycles) {
				t.Fatalf("tasklet %d issued %d cycles apart (< %d)", ev.Tasklet, gap, cfg.RevolverCycles)
			}
		}
		last[ev.Tasklet] = ev.Cycle
		seen[ev.Tasklet] = true
	}
}

// rfConflictKernel's hot loop reads two distinct even registers every
// iteration.
func rfConflictKernel(iters int32) *linker.Object {
	b := kbuild.New("rfconflict")
	r0, r2, r4 := kbuild.R(0), kbuild.R(2), kbuild.R(4)
	b.Movi(r0, iters)
	b.Movi(r2, 3)
	b.Movi(r4, 4)
	b.Label("loop")
	b.Add(r2, r2, r4) // even+even: RF conflict
	b.AddiBr(r0, r0, -1, kbuild.CondNZ, "loop")
	b.Stop()
	return b.MustBuild()
}

func TestOddEvenRFHazard(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	base := buildRun(t, rfConflictKernel(2000), cfg, nil)
	if base.Stats().Idle[stats.IdleRF] == 0 {
		t.Fatal("expected RF-hazard idle slots")
	}

	unified := cfg
	unified.UnifiedRF = true
	fixed := buildRun(t, rfConflictKernel(2000), unified, nil)
	if fixed.Stats().Idle[stats.IdleRF] != 0 {
		t.Fatal("unified RF must eliminate RF idle slots")
	}
	if fixed.Cycles() >= base.Cycles() {
		t.Fatalf("unified RF not faster: %d vs %d cycles", fixed.Cycles(), base.Cycles())
	}
	// With a conflict every other instruction, the baseline needs ~1.5 slots
	// per instruction: IPC ~ 2/3.
	if ipc := base.Stats().IPC(); ipc > 0.72 || ipc < 0.6 {
		t.Errorf("conflicted IPC = %.3f, want ~0.67", ipc)
	}
	if ipc := fixed.Stats().IPC(); ipc < 0.97 {
		t.Errorf("unified-RF IPC = %.3f, want ~1.0", ipc)
	}
}

func TestForwardingSingleThread(t *testing.T) {
	// Independent ops: forwarding lets one thread issue back to back.
	cfg := config.Default()
	cfg.NumTasklets = 1
	cfg.Forwarding = true
	d := buildRun(t, loopKernel(3000), cfg, nil)
	// The loop alternates addi r1 (independent) and the branch on r0; the
	// branch depends on r0 from 2 instructions earlier (latency 4 -> some
	// stalling), so IPC lands between 1/4 and 1.
	if ipc := d.Stats().IPC(); ipc < 0.35 {
		t.Fatalf("forwarding single-thread IPC = %.3f, want >> 1/11", ipc)
	}

	base := config.Default()
	base.NumTasklets = 1
	db := buildRun(t, loopKernel(3000), base, nil)
	if d.Cycles() >= db.Cycles() {
		t.Fatal("forwarding must beat the revolver baseline for one thread")
	}
}

func TestSuperscalarDoublesThroughput(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 24
	cfg.UnifiedRF = true
	base := buildRun(t, loopKernel(2000), cfg, nil)

	ss := cfg
	ss.IssueWidth = 2
	d2 := buildRun(t, loopKernel(2000), ss, nil)
	if ipc := d2.Stats().IPC(); ipc < 1.9 {
		t.Fatalf("2-way IPC = %.3f, want ~2", ipc)
	}
	if d2.Cycles() >= base.Cycles() {
		t.Fatal("superscalar not faster")
	}
}

// dmaKernel streams `chunks` x 2KB from MRAM into WRAM per tasklet.
func dmaKernel(chunks int32) *linker.Object {
	b := kbuild.New("dma")
	buf := b.Static("buf", 2048, 8)
	r0, r1, r2, r3 := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	b.LoadArg(r0, 0) // MRAM base (absolute)
	// Stride tasklets across the region: base + id*chunks*2048.
	b.Movi(r2, chunks*2048)
	b.Mul(r3, r2, kbuild.ID)
	b.Add(r0, r0, r3)
	b.MoviSym(r1, buf, 0)
	b.Movi(r2, chunks)
	b.Label("loop")
	b.Ldmai(r1, r0, 2048)
	b.Movi(r3, 2048)
	b.Add(r0, r0, r3)
	b.AddiBr(r2, r2, -1, kbuild.CondNZ, "loop")
	b.Stop()
	return b.MustBuild()
}

func TestDMAStreamingBandwidth(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	const chunks = 8
	d := buildRun(t, dmaKernel(chunks), cfg, func(d *DPU) {
		writeArgs(t, d, mem.MRAMBase)
	})
	bytes := float64(d.Stats().DRAM.BytesRead)
	want := float64(16 * chunks * 2048)
	if bytes != want {
		t.Fatalf("DRAM bytes read = %.0f, want %.0f", bytes, want)
	}
	perCycle := bytes / float64(d.Cycles())
	// The link caps at 2 B/cycle; row activations eat a little.
	if perCycle < 1.5 || perCycle > 2.0 {
		t.Fatalf("streaming bandwidth = %.3f B/cycle, want ~1.7-2.0", perCycle)
	}
	if d.Stats().DRAM.RowHitRate() < 0.9 {
		t.Fatalf("streaming row hit rate = %.2f, want > 0.9", d.Stats().DRAM.RowHitRate())
	}
}

func TestDMACopiesData(t *testing.T) {
	b := kbuild.New("dmacopy")
	buf := b.Static("buf", 256, 8)
	r0, r1 := kbuild.R(0), kbuild.R(1)
	b.LoadArg(r0, 0)
	b.MoviSym(r1, buf, 0)
	b.Ldmai(r1, r0, 256)
	// Round-trip back to MRAM at a different offset.
	b.LoadArg(r0, 1)
	b.Sdmai(r1, r0, 256)
	b.Stop()
	obj := b.MustBuild()

	cfg := config.Default()
	cfg.NumTasklets = 1
	src := make([]byte, 256)
	for i := range src {
		src[i] = byte(i * 7)
	}
	d := buildRun(t, obj, cfg, func(d *DPU) {
		if err := d.MRAM().WriteBytes(4096, src); err != nil {
			t.Fatal(err)
		}
		writeArgs(t, d, mem.MRAMBase+4096, mem.MRAMBase+65536)
	})
	got := make([]byte, 256)
	if err := d.MRAM().ReadBytes(65536, got); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("byte %d: got %d want %d", i, got[i], src[i])
		}
	}
	if d.Stats().DMAs != 2 || d.Stats().DMABytes != 512 {
		t.Fatalf("DMA stats = %d ops / %d bytes", d.Stats().DMAs, d.Stats().DMABytes)
	}
}

// mutexKernel: tasklets increment a shared WRAM counter `iters` times under
// a mutex.
func mutexKernel(iters int32) *linker.Object {
	b := kbuild.New("mutex")
	cnt := b.Static("cnt", 8, 8)
	lock := b.AllocLock()
	r0, r1, r2 := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	b.Movi(r0, iters)
	b.MoviSym(r2, cnt, 0)
	b.Label("loop")
	b.AcquireSpin(lock)
	b.Lw(r1, r2, 0)
	b.Addi(r1, r1, 1)
	b.Sw(r1, r2, 0)
	b.Release(lock)
	b.AddiBr(r0, r0, -1, kbuild.CondNZ, "loop")
	b.Stop()
	return b.MustBuild()
}

func TestMutexMutualExclusion(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 16
	const iters = 200
	d := buildRun(t, mutexKernel(iters), cfg, nil)
	addr, _ := d.Program().SymbolAddr("cnt")
	v, err := d.WRAM().Load(addr, 4)
	if err != nil {
		t.Fatal(err)
	}
	if v != 16*iters {
		t.Fatalf("counter = %d, want %d (lost updates!)", v, 16*iters)
	}
	if d.Stats().AcquireOK != 16*iters {
		t.Fatalf("acquires = %d, want %d", d.Stats().AcquireOK, 16*iters)
	}
	if d.Stats().AcquireFail == 0 {
		t.Fatal("expected contention (spin retries)")
	}
	// Contention shows up as synchronization instructions (paper Fig 9).
	mix := d.Stats().MixFractions()
	if mix[5] < 0.2 { // ClassSync
		t.Fatalf("sync fraction = %.2f, want heavy contention", mix[5])
	}
}

// barrierKernel: each tasklet writes its id, waits at the barrier, then
// checks its neighbour's slot.
func barrierKernel() *linker.Object {
	b := kbuild.New("barrier")
	slots := b.Static("slots", 4*24, 8)
	ok := b.Static("okflags", 4*24, 8)
	bar := b.NewBarrier("b0")
	r0, r1, r2, r3, r4 := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4)
	b.MoviSym(r0, slots, 0)
	b.Lsli(r1, kbuild.ID, 2)
	b.Add(r0, r0, r1)
	b.Mov(r2, kbuild.ID)
	b.Sw(r2, r0, 0) // slots[id] = id
	b.Wait(bar, r2, r3, r4)
	// neighbour = (id+1) % NTH
	b.Addi(r1, kbuild.ID, 1)
	b.Rem(r1, r1, kbuild.NTH)
	b.Lsli(r1, r1, 2)
	b.MoviSym(r0, slots, 0)
	b.Add(r0, r0, r1)
	b.Lw(r2, r0, 0) // neighbour's slot
	b.Addi(r3, kbuild.ID, 1)
	b.Rem(r3, r3, kbuild.NTH)
	b.Sub(r2, r2, r3) // 0 iff neighbour had written
	b.MoviSym(r0, ok, 0)
	b.Lsli(r1, kbuild.ID, 2)
	b.Add(r0, r0, r1)
	b.Addi(r2, r2, 1) // 1 on success
	b.Sw(r2, r0, 0)
	b.Stop()
	return b.MustBuild()
}

func TestBarrierSynchronizes(t *testing.T) {
	for _, n := range []int{2, 7, 16, 24} {
		cfg := config.Default()
		cfg.NumTasklets = n
		d := buildRun(t, barrierKernel(), cfg, nil)
		addr, _ := d.Program().SymbolAddr("okflags")
		raw := make([]byte, 4*n)
		if err := d.WRAM().ReadBytes(addr, raw); err != nil {
			t.Fatal(err)
		}
		for i, v := range u32s(t, raw) {
			if v != 1 {
				t.Fatalf("n=%d: tasklet %d saw a stale neighbour slot", n, i)
			}
		}
	}
}

func TestFaults(t *testing.T) {
	cases := []struct {
		name  string
		build func() *linker.Object
		sub   string
	}{
		{"misaligned", func() *linker.Object {
			b := kbuild.New("f")
			b.Movi(kbuild.R(0), 2)
			b.Lw(kbuild.R(1), kbuild.R(0), 0)
			b.Stop()
			return b.MustBuild()
		}, "misaligned"},
		{"release unheld", func() *linker.Object {
			b := kbuild.New("f")
			b.Release(b.AllocLock())
			b.Stop()
			return b.MustBuild()
		}, "release"},
		{"mram load scratchpad mode", func() *linker.Object {
			b := kbuild.New("f")
			b.Movi(kbuild.R(0), int32(mem.MRAMBase))
			b.Lw(kbuild.R(1), kbuild.R(0), 0)
			b.Stop()
			return b.MustBuild()
		}, "use DMA"},
		{"dma bad length", func() *linker.Object {
			b := kbuild.New("f")
			b.Movi(kbuild.R(0), int32(mem.MRAMBase))
			b.Movi(kbuild.R(1), 1024)
			b.Movi(kbuild.R(2), 12) // not a multiple of 8
			b.Ldma(kbuild.R(1), kbuild.R(0), kbuild.R(2))
			b.Stop()
			return b.MustBuild()
		}, "multiple of 8"},
		{"software fault", func() *linker.Object {
			b := kbuild.New("f")
			b.Fault(kbuild.R(0), 3)
			b.Stop()
			return b.MustBuild()
		}, "software fault"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NumTasklets = 1
			d := buildDPU(t, c.build(), cfg, nil)
			err := d.Run(context.Background(), testWatchdog)
			if err == nil || !strings.Contains(err.Error(), c.sub) {
				t.Fatalf("err = %v, want substring %q", err, c.sub)
			}
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("err %T is not a FaultError", err)
			}
		})
	}
}

func TestWatchdogCatchesInfiniteLoop(t *testing.T) {
	b := kbuild.New("inf")
	b.Label("loop")
	b.Jump("loop")
	b.Stop()
	cfg := config.Default()
	cfg.NumTasklets = 1
	d := buildDPU(t, b.MustBuild(), cfg, nil)
	if err := d.Run(context.Background(), 10_000); err == nil || !strings.Contains(err.Error(), "watchdog") {
		t.Fatalf("err = %v, want watchdog", err)
	}

	// A deadline that falls inside an idle stretch — one tasklet blocked on
	// its DMA while the bank works through the bursts, sixteen queued behind
	// a saturated link, one warp waiting out a vector load — must land on the
	// deadline exactly, whichever cycle of the stretch it is: the bulk jump
	// is clamped to it and the bank-only cycles stop at it.
	for name, build := range idlePoints(t) {
		for _, budget := range []uint64{1, 40, 41, 100, 777, 1000, 5000, 5001} {
			d := build()
			err := d.Run(context.Background(), budget)
			if !errors.Is(err, ErrWatchdogExpired) {
				t.Fatalf("%s, budget %d: err = %v, want ErrWatchdogExpired", name, budget, err)
			}
			if d.Cycles() != budget {
				t.Fatalf("%s, budget %d: watchdog fired at cycle %d", name, budget, d.Cycles())
			}
			if slots := d.Stats().IssueSlots; slots != float64(budget) {
				t.Fatalf("%s, budget %d: %v issue slots accounted", name, budget, slots)
			}
		}
	}
}

// cacheSumKernel sums n words directly from MRAM (cache-centric model).
func cacheSumKernel() *linker.Object {
	b := kbuild.New("cachesum")
	out := b.Static("out", 4*24, 8)
	r0, r1, r2, r3, r4, r5 := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4), kbuild.R(5)
	b.LoadArg(r0, 0) // array base (absolute MRAM address)
	b.LoadArg(r1, 1) // n
	b.TaskletRange(r2, r3, r1, r4)
	b.Movi(r5, 0) // sum
	b.Lsli(r4, r2, 2)
	b.Add(r4, r0, r4) // &a[start]
	b.Jge(r2, r3, "done")
	b.Label("loop")
	b.Lw(r1, r4, 0)
	b.Add(r5, r5, r1)
	b.Addi(r4, r4, 4)
	b.Addi(r2, r2, 1)
	b.Jlt(r2, r3, "loop")
	b.Label("done")
	b.MoviSym(r0, out, 0)
	b.Lsli(r1, kbuild.ID, 2)
	b.Add(r0, r0, r1)
	b.Sw(r5, r0, 0)
	b.Stop()
	return b.MustBuild()
}

func TestCacheModeExecution(t *testing.T) {
	cfg := config.Default()
	cfg.Mode = config.ModeCache
	cfg.NumTasklets = 8
	const n = 4096
	data := make([]byte, 4*n)
	var want uint32
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(data[4*i:], uint32(i))
		want += uint32(i)
	}
	d := buildRun(t, cacheSumKernel(), cfg, func(d *DPU) {
		if err := d.MRAM().WriteBytes(0, data); err != nil {
			t.Fatal(err)
		}
		writeArgs(t, d, mem.MRAMBase, n)
	})
	// Sum the per-tasklet partials on the host side.
	addr, _ := d.Program().SymbolAddr("out")
	raw := make([]byte, 4*8)
	if err := d.MRAM().ReadBytes(addr-mem.MRAMBase, raw); err != nil {
		t.Fatal(err)
	}
	var got uint32
	for _, v := range u32s(t, raw) {
		got += v
	}
	if got != want {
		t.Fatalf("sum = %d, want %d", got, want)
	}
	st := d.Stats()
	if st.DCache.Misses == 0 || st.DCache.Hits == 0 {
		t.Fatalf("cache stats = %+v", st.DCache)
	}
	// Sequential scan: ~1 miss per 16 words.
	hitRate := st.DCache.HitRate()
	if hitRate < 0.85 {
		t.Fatalf("D$ hit rate = %.2f, want sequential-scan locality", hitRate)
	}
	if st.DRAM.BytesRead == 0 {
		t.Fatal("cache fills must reach DRAM")
	}
}

func TestMMUOverheadSmallForStreaming(t *testing.T) {
	base := config.Default()
	base.NumTasklets = 16
	b1 := buildRun(t, dmaKernel(8), base, func(d *DPU) {
		writeArgs(t, d, mem.MRAMBase)
	})

	withMMU := base
	withMMU.MMU.Enable = true
	b2 := buildRun(t, dmaKernel(8), withMMU, func(d *DPU) {
		writeArgs(t, d, mem.MRAMBase)
		d.MMU().MapRange(0, 16*8*2048)
	})
	st := b2.Stats()
	if st.MMU.TLBMisses == 0 || st.MMU.TableWalks == 0 {
		t.Fatalf("MMU stats = %+v", st.MMU)
	}
	over := float64(b2.Cycles())/float64(b1.Cycles()) - 1
	if over < 0 || over > 0.15 {
		t.Fatalf("MMU overhead = %.1f%%, want small positive (paper: ~0.8%% avg)", over*100)
	}
}
