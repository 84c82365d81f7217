package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"strings"
	"testing"

	"upim/internal/asm"
	"upim/internal/config"
	"upim/internal/isa"
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

// staticsSrc reads two initialized words and copies them into a second
// initialized static, which the host reads back.
const staticsSrc = `
.word magic 0xdeadbeef 42
.word out   0 0
	movi r0, magic
	lw   r1, r0, 0
	lw   r2, r0, 4
	movi r3, out
	sw   r1, r3, 0
	sw   r2, r3, 4
	stop
`

// TestInitializedStaticsReachTheDPU runs a .word program: load places the
// initialized statics in WRAM (scratchpad), or in the MRAM static window and
// the MMU's page table (cache mode, prefault policy), and the kernel reads
// the initial words back.
func TestInitializedStaticsReachTheDPU(t *testing.T) {
	obj, err := asm.Assemble("statics", staticsSrc)
	if err != nil {
		t.Fatal(err)
	}
	scratchpad := config.Default()
	scratchpad.NumTasklets = 1
	cache := scratchpad
	cache.Mode = config.ModeCache
	cache.MMU.Enable = true
	for name, cfg := range map[string]config.Config{"scratchpad": scratchpad, "cache+mmu": cache} {
		d := buildRun(t, obj, cfg, nil)
		addr, err := d.Program().SymbolAddr("out")
		if err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 8)
		if cfg.Mode == config.ModeScratchpad {
			err = d.WRAM().ReadBytes(addr-mem.WRAMBase, raw)
		} else {
			err = d.MRAM().ReadBytes(addr-mem.MRAMBase, raw)
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := u32s(t, raw); got[0] != 0xdeadbeef || got[1] != 42 {
			t.Errorf("%s: out = %#x, want [0xdeadbeef 0x2a]", name, got)
		}
		if cfg.MMU.Enable && (d.Stats().MMU.TableWalks == 0 || d.Stats().MMU.PageFaults != 0) {
			t.Errorf("%s: MMU stats = %+v, want walks over mapped pages", name, d.Stats().MMU)
		}
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

// saturationLoops are the hot loops of TestElevenThreadsSaturatePipeline:
// one instruction of each kind per iteration, then the decrement-and-branch,
// with r1 (odd) and r2 (even, a WRAM address) as sources so that neither
// has an RF conflict.
var saturationLoops = []struct {
	name string
	body func(b *kbuild.Builder, r1, r2 kbuild.Reg)
}{
	{"add", func(b *kbuild.Builder, r1, r2 kbuild.Reg) { b.Add(r1, r1, r2) }},
	{"mul", func(b *kbuild.Builder, r1, r2 kbuild.Reg) { b.Mul(r1, r1, r2) }},
	{"lw", func(b *kbuild.Builder, r1, r2 kbuild.Reg) { b.Lw(r1, r2, 0) }},
}

// TestElevenThreadsSaturatePipeline checks the revolver's issue curve, the
// tasklet saturation PrIM measures: with T tasklets and no hazard, IPC is
// min(T, 11)/11 for an add, a mul and a WRAM load loop alike, every class
// taking one issue slot.
func TestElevenThreadsSaturatePipeline(t *testing.T) {
	for _, loop := range saturationLoops {
		b := kbuild.New(loop.name)
		buf := b.Static("buf", 8, 8)
		r0, r1, r2 := kbuild.R(0), kbuild.R(1), kbuild.R(2)
		b.Movi(r0, 2000)
		b.MoviSym(r2, buf, 0)
		b.Label("loop")
		loop.body(b, r1, r2)
		b.AddiBr(r0, r0, -1, kbuild.CondNZ, "loop")
		b.Stop()
		obj := b.MustBuild()
		for n := 1; n <= 24; n++ {
			cfg := config.Default()
			cfg.NumTasklets = n
			ipc := buildRun(t, obj, cfg, nil).Stats().IPC()
			want := float64(min(n, cfg.RevolverCycles)) / float64(cfg.RevolverCycles)
			if n < cfg.RevolverCycles && (ipc < want*0.95 || ipc > want*1.05) || n >= cfg.RevolverCycles && ipc < 0.97 {
				t.Errorf("%s loop, %d tasklets: IPC = %.3f, want %.3f", loop.name, n, ipc, want)
			}
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

// dmaOnceKernel is one tasklet's single DMA of size bytes between MRAM (its
// address the first argument) and a WRAM buffer; size 0 is the same kernel
// without the DMA.
func dmaOnceKernel(store bool, size int32) *linker.Object {
	b := kbuild.New("dmaonce")
	buf := b.Static("buf", 2048, 8)
	r0, r1 := kbuild.R(0), kbuild.R(1)
	b.LoadArg(r0, 0)
	b.MoviSym(r1, buf, 0)
	switch {
	case size == 0:
	case store:
		b.Sdmai(r1, r0, size)
	default:
		b.Ldmai(r1, r0, size)
	}
	b.Stop()
	return b.MustBuild()
}

// TestDMALatencyClosedForm holds one DMA's latency to the closed form PrIM
// measures on hardware, α + β·size: a fixed 12 cycles for the DRAM access,
// then the bytes at the link's width, for every legal size in both
// directions. Latency is the kernel's cycles minus those of the same kernel
// without the DMA.
func TestDMALatencyClosedForm(t *testing.T) {
	const alpha = 12
	for _, link := range []int{2, 4} {
		cfg := config.Default()
		cfg.NumTasklets = 1
		cfg.LinkBytesPerCycle = link
		run := func(store bool, size int32) uint64 {
			return buildRun(t, dmaOnceKernel(store, size), cfg, func(d *DPU) {
				writeArgs(t, d, mem.MRAMBase)
			}).Cycles()
		}
		base := run(false, 0)
		for _, store := range []bool{false, true} {
			for size := int32(8); size <= 2048; size += 8 {
				got := run(store, size) - base
				if want := uint64(alpha + int(size)/link); got != want {
					t.Errorf("link %d B/cycle, store %v, %d B: latency %d cycles, want %d", link, store, size, got, want)
				}
			}
		}
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

// TestDMAAcrossAPage runs execDMA's per-page split: a 2 KiB DMA that starts
// 1 KiB below a 4 KiB page boundary is translated page by page under the
// MMU. It must read what it reads without the MMU, take no fewer cycles, and
// walk the page table once per page.
func TestDMAAcrossAPage(t *testing.T) {
	const off, size = 3 << 10, 2048
	src := make([]byte, size)
	for i := range src {
		src[i] = byte(i*13 + 5)
	}
	run := func(mmu bool) *DPU {
		cfg := config.Default()
		cfg.NumTasklets = 1
		cfg.MMU.Enable = mmu
		return buildRun(t, dmaOnceKernel(false, size), cfg, func(d *DPU) {
			if err := d.MRAM().WriteBytes(off, src); err != nil {
				t.Fatal(err)
			}
			if mmu {
				d.MMU().MapRange(off, size)
			}
			writeArgs(t, d, mem.MRAMBase+off)
		})
	}
	plain, paged := run(false), run(true)
	read := func(d *DPU) []byte {
		addr, _ := d.Program().SymbolAddr("buf")
		got := make([]byte, size)
		if err := d.WRAM().ReadBytes(addr, got); err != nil {
			t.Fatal(err)
		}
		return got
	}
	if !bytes.Equal(read(plain), src) || !bytes.Equal(read(paged), src) {
		t.Fatal("the DMA did not copy the source bytes")
	}
	if paged.Cycles() < plain.Cycles() {
		t.Errorf("cycles with the MMU %d, without %d", paged.Cycles(), plain.Cycles())
	}
	if w := paged.Stats().MMU.TableWalks; w != 2 {
		t.Errorf("table walks = %d, want 2 (one per page)", w)
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

// TestFaults runs the interpreter's fault paths. Each faulting program runs
// on two tasklets, and only tasklet 1 takes the faulting path: the run must
// end in a *FaultError naming that tasklet, the faulting instruction's PC and
// the cause. Next to them run edge cases of the interpreter that must not
// fault and that no kernel in the suite reaches.
func TestFaults(t *testing.T) {
	r0, r1, r2 := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	cacheMode := func(c *config.Config) { c.Mode = config.ModeCache }
	cases := []struct {
		name  string
		cfg   func(*config.Config)
		body  func(b *kbuild.Builder) // ends with the faulting instruction
		pc    uint16
		cause string
	}{
		{"misaligned", nil, func(b *kbuild.Builder) {
			b.Movi(r0, 2)
			b.Lw(r1, r0, 0)
		}, 2, "mem: WRAM access at 0x00000002 (size 4): misaligned"},
		{"release unheld", nil, func(b *kbuild.Builder) {
			b.Release(b.AllocLock())
		}, 1, "mem: atomic access at 0xf0000000 (size 1): release by tasklet 1 but owner is -1"},
		{"mram load scratchpad mode", nil, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase))
			b.Lw(r1, r0, 0)
		}, 2, "load/store to MRAM space 0x08000000 under the scratchpad-centric model (use DMA)"},
		{"dma bad length", nil, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase))
			b.Movi(r1, 1024)
			b.Movi(r2, 12) // not a multiple of 8
			b.Ldma(r1, r0, r2)
		}, 4, "DMA length 12 must be a positive multiple of 8 <= 2048"},
		{"dma too long", nil, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase))
			b.Movi(r1, 1024)
			b.Movi(r2, 2056)
			b.Sdma(r1, r0, r2)
		}, 4, "DMA length 2056 must be a positive multiple of 8 <= 2048"},
		{"software fault", nil, func(b *kbuild.Builder) {
			b.Fault(r0, 3)
		}, 1, "software fault 3 (r0=0)"},
		{"jreg past the end", nil, func(b *kbuild.Builder) {
			b.Movi(r0, 1000)
			b.Jreg(r0)
		}, 2, "jreg to 1000 beyond program end 5"},
		{"acquire out of range", func(c *config.Config) { c.AtomicLocks = 2 }, func(b *kbuild.Builder) {
			b.AcquireSpin(5)
		}, 1, "mem: atomic access at 0xf0000005 (size 1): lock index out of range"},
		{"load from IRAM", nil, func(b *kbuild.Builder) {
			b.Movi(r0, math.MinInt32) // mem.IRAMBase
			b.Lw(r1, r0, 0)
		}, 2, "load/store to IRAM space at 0x80000000"},
		{"unmapped page under prefault", func(c *config.Config) {
			cacheMode(c)
			c.MMU.Enable, c.MMU.Prefault = true, true
		}, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase+64<<10))
			b.Lw(r1, r0, 0)
		}, 2, "mmu: access to unmapped page 16 at 0x00010000 with prefault policy"},
		{"dma in cache mode", cacheMode, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase))
			b.Movi(r1, 0)
			b.Ldmai(r1, r0, 8)
		}, 3, "DMA instructions are only defined under the scratchpad-centric model (mode cache)"},
		{"dma misaligned", nil, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase+4))
			b.Movi(r1, 0)
			b.Ldmai(r1, r0, 8)
		}, 3, "DMA addresses must be 8-byte aligned (wram 0x0, mram 0x8000004)"},
		{"dma to a non-MRAM address", nil, func(b *kbuild.Builder) {
			b.Movi(r0, 0x100)
			b.Movi(r1, 0)
			b.Sdmai(r1, r0, 8)
		}, 3, "DMA MRAM address 0x00000100 outside MRAM space"},
		{"dma past the WRAM end", nil, func(b *kbuild.Builder) {
			b.Movi(r0, int32(mem.MRAMBase))
			b.Movi(r1, int32(config.Default().WRAMBytes-8))
			b.Ldmai(r1, r0, 16)
		}, 3, "mem: WRAM access at 0x0000fff8 (size 16): out of range"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := config.Default()
			cfg.NumTasklets = 2
			if c.cfg != nil {
				c.cfg(&cfg)
			}
			b := kbuild.New("f")
			b.Jnei(kbuild.ID, 1, "idle")
			c.body(b)
			b.Stop()
			b.Label("idle")
			b.Stop()
			err := buildDPU(t, b.MustBuild(), cfg, nil).Run(context.Background(), testWatchdog)
			var fe *FaultError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v, want a *FaultError", err)
			}
			if fe.Tasklet != 1 || fe.PC != c.pc || errors.Unwrap(fe).Error() != c.cause {
				t.Fatalf("tasklet %d, pc %d, cause %q; want tasklet 1, pc %d, cause %q",
					fe.Tasklet, fe.PC, errors.Unwrap(fe), c.pc, c.cause)
			}
		})
	}

	// The edge cases leave their result in r2. The expected values are
	// literals: the ALU model, aluOp, calls the interpreter's own
	// divSigned/remSigned.
	alu := func(op func(b *kbuild.Builder, rd, ra, rb kbuild.Reg), x, y int32) func(*kbuild.Builder) {
		return func(b *kbuild.Builder) {
			b.Movi(r0, x)
			b.Movi(r1, y)
			op(b, r2, r0, r1)
		}
	}
	branch := func(op isa.Opcode, x, y int32) func(*kbuild.Builder) {
		return func(b *kbuild.Builder) {
			b.Movi(r0, x)
			b.Movi(r1, y)
			b.Movi(r2, 1) // taken
			b.Br(op, r0, r1, "done")
			b.Movi(r2, 0)
			b.Label("done")
		}
	}
	div, rem := (*kbuild.Builder).Div, (*kbuild.Builder).Rem
	edges := []struct {
		name string
		emit func(*kbuild.Builder)
		want uint32
	}{
		// A nop that left the PC alone would spin until the watchdog.
		{"nop advances the PC", func(b *kbuild.Builder) { b.Nop(); b.Movi(r2, 7) }, 7},
		{"jltu 1 < 0xffffffff", branch(isa.OpJLTU, 1, -1), 1},
		{"jltu 0xffffffff < 1", branch(isa.OpJLTU, -1, 1), 0},
		{"jgeu 1 >= 0xffffffff", branch(isa.OpJGEU, 1, -1), 0},
		{"jgeu 0xffffffff >= 1", branch(isa.OpJGEU, -1, 1), 1},
		{"div by zero", alu(div, 7, 0), 0xffffffff},
		{"rem by zero", alu(rem, 7, 0), 7},
		{"MinInt32 / -1", alu(div, math.MinInt32, -1), 0x80000000},
		{"MinInt32 % -1", alu(rem, math.MinInt32, -1), 0},
	}
	for _, e := range edges {
		t.Run(e.name, func(t *testing.T) {
			b := kbuild.New("edge")
			out := b.Static("out", 8, 8)
			e.emit(b)
			b.MoviSym(r0, out, 0)
			b.Sw(r2, r0, 0)
			b.Stop()
			cfg := config.Default()
			cfg.NumTasklets = 1
			d := buildDPU(t, b.MustBuild(), cfg, nil)
			if err := d.Run(context.Background(), 10_000); err != nil {
				t.Fatal(err)
			}
			addr, _ := d.Program().SymbolAddr("out")
			raw := make([]byte, 4)
			if err := d.WRAM().ReadBytes(addr, raw); err != nil {
				t.Fatal(err)
			}
			if got := u32s(t, raw)[0]; got != e.want {
				t.Fatalf("r2 = %#x, want %#x", got, e.want)
			}
		})
	}
}

// TestUnboundedWatchdogSurvivesRelaunch: a budget of math.MaxUint64 means
// no bound, also for a kernel launched again once the clock has moved past
// zero, where clock + budget no longer fits in a uint64.
func TestUnboundedWatchdogSurvivesRelaunch(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 4
	d := buildDPU(t, loopKernel(50), cfg, nil)
	for launch := 0; launch < 2; launch++ {
		if launch > 0 {
			d.Relaunch()
		}
		if err := d.Run(context.Background(), math.MaxUint64); err != nil {
			t.Fatalf("launch %d at cycle %d: %v", launch, d.Cycles(), err)
		}
	}
}

// TestRelaunchForgetsAbortedLaunch: a launch cut short leaves nothing behind
// for the next one. A watchdog that expires mid-stream leaves bursts queued at
// the bank and transfers in flight, a fault leaves its error; Relaunch lets
// the bursts finish in the memory system and forgets the transfers and the
// fault, so the next launch keeps one timer per unit and runs clean.
func TestRelaunchForgetsAbortedLaunch(t *testing.T) {
	t.Run("watchdog", func(t *testing.T) {
		cfg := config.Default()
		cfg.NumTasklets = 4
		d := buildDPU(t, dmaKernel(2), cfg, func(d *DPU) { writeArgs(t, d, mem.MRAMBase) })
		if err := d.Run(context.Background(), 500); !errors.Is(err, ErrWatchdogExpired) {
			t.Fatalf("first launch: %v, want the watchdog", err)
		}
		if d.bank.Pending() == 0 {
			t.Fatal("the watchdog expired with no burst queued")
		}
		d.Relaunch()
		runOneTimerPerUnit(t, "relaunch", d, cfg.NumTasklets)
	})
	t.Run("fault", func(t *testing.T) {
		cfg := config.Default()
		cfg.NumTasklets = 1
		d := buildDPU(t, dmaOnceKernel(false, 8), cfg, func(d *DPU) { writeArgs(t, d, mem.MRAMBase+4) })
		var fe *FaultError
		if err := d.Run(context.Background(), testWatchdog); !errors.As(err, &fe) {
			t.Fatalf("first launch: %v, want a *FaultError", err)
		}
		writeArgs(t, d, mem.MRAMBase)
		d.Relaunch()
		if err := d.Run(context.Background(), testWatchdog); err != nil {
			t.Fatalf("relaunch with an aligned argument: %v", err)
		}
	})
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
