package kbuild

import (
	"reflect"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/isa"
	"upim/internal/linker"
)

func TestBuildResolvesLabels(t *testing.T) {
	b := New("t")
	b.Movi(R(0), 5)
	b.Label("loop")
	b.AddiBr(R(0), R(0), -1, CondNZ, "loop")
	b.Jump("end")
	b.Nop()
	b.Label("end")
	b.Stop()
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if obj.Instrs[1].Target != 1 {
		t.Fatalf("backward label = %d", obj.Instrs[1].Target)
	}
	if obj.Instrs[2].Target != 4 {
		t.Fatalf("forward label = %d", obj.Instrs[2].Target)
	}
}

func TestUndefinedLabelFailsBuild(t *testing.T) {
	b := New("t")
	b.Jump("nowhere")
	b.Stop()
	if _, err := b.Build(); err == nil || !strings.Contains(err.Error(), "undefined label") {
		t.Fatalf("err = %v", err)
	}
}

func TestPanics(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Builder)
	}{
		{"dup label", func(b *Builder) { b.Label("x"); b.Label("x") }},
		{"imm overflow", func(b *Builder) { b.Addi(R(0), R(1), 1<<20) }},
		{"bad reg", func(b *Builder) { b.Add(Reg(40), R(1), R(2)) }},
		{"dma len", func(b *Builder) { b.Ldmai(R(0), R(1), 12) }},
		{"dma too big", func(b *Builder) { b.Sdmai(R(0), R(1), 4096) }},
		{"dup static", func(b *Builder) { b.Static("s", 8, 8); b.Static("s", 8, 8) }},
		{"zero static", func(b *Builder) { b.Static("z", 0, 8) }},
		{"unknown sym", func(b *Builder) { b.MoviSym(R(0), "ghost", 0) }},
		{"bad arg index", func(b *Builder) { b.LoadArg(R(0), 99) }},
		{"non-jcc br", func(b *Builder) { b.Br(isa.OpADD, R(0), R(1), "x") }},
		{"bad align", func(b *Builder) { b.TaskletRangeAligned(R(0), R(1), R(2), R(3), 3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			c.f(New("p"))
		})
	}
}

func TestGensymUnique(t *testing.T) {
	b := New("t")
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		s := b.Gensym("x")
		if seen[s] {
			t.Fatalf("gensym repeated %q", s)
		}
		seen[s] = true
	}
}

func TestAllocLockSequential(t *testing.T) {
	b := New("t")
	if b.AllocLock() != 0 || b.AllocLock() != 1 || b.AllocLock() != 2 {
		t.Fatal("lock allocation not sequential")
	}
}

func TestAcquireSpinSelfTargets(t *testing.T) {
	b := New("t")
	b.Nop()
	b.AcquireSpin(7)
	b.Stop()
	obj := b.MustBuild()
	in := obj.Instrs[1]
	if in.Op != isa.OpACQUIRE || in.Imm != 7 || in.Target != 1 {
		t.Fatalf("acquire = %+v, want self-targeting spin", in)
	}
}

func TestBarrierEmitsSyncAndStatics(t *testing.T) {
	b := New("t")
	bar := b.NewBarrier("b0")
	b.Wait(bar, R(1), R(2), R(3))
	b.Stop()
	obj := b.MustBuild()
	if len(obj.Statics) != 2 {
		t.Fatalf("barrier statics = %d, want counter+generation", len(obj.Statics))
	}
	var acquires, releases int
	for _, in := range obj.Instrs {
		switch in.Op {
		case isa.OpACQUIRE:
			acquires++
		case isa.OpRELEASE:
			releases++
		}
	}
	if acquires != 1 || releases != 2 {
		t.Fatalf("barrier sync ops = %d acquire / %d release", acquires, releases)
	}
}

func TestMoviSymFixups(t *testing.T) {
	b := New("t")
	s := b.Static("tbl", 64, 8)
	b.MoviSym(R(3), s, 16)
	b.Stop()
	obj := b.MustBuild()
	if len(obj.Fixups) != 1 || obj.Fixups[0].Symbol != "tbl" || obj.Fixups[0].Addend != 16 {
		t.Fatalf("fixups = %+v", obj.Fixups)
	}
	// Link and confirm patching.
	prog, err := linker.Link(obj, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	addr, _ := prog.SymbolAddr("tbl")
	if prog.Instrs[0].Imm != int32(addr)+16 {
		t.Fatalf("patched imm = %d", prog.Instrs[0].Imm)
	}
}

func TestBuildValidatesInstructions(t *testing.T) {
	// Build() must re-validate the final stream (fixup targets excepted).
	b := New("t")
	b.Movi(R(0), 1)
	b.Stop()
	if _, err := b.Build(); err != nil {
		t.Fatal(err)
	}
}

func TestTaskletRangeEmitsDivMul(t *testing.T) {
	b := New("t")
	b.TaskletRange(R(0), R(1), R(2), R(3))
	b.Stop()
	obj := b.MustBuild()
	var hasDiv, hasMul bool
	for _, in := range obj.Instrs {
		hasDiv = hasDiv || in.Op == isa.OpDIV
		hasMul = hasMul || in.Op == isa.OpMUL
	}
	if !hasDiv || !hasMul {
		t.Fatal("partition macro must compute ceil-div and scale by ID")
	}
}

// toy builds a kernel around f and returns its object.
func toy(f func(b *Builder)) *linker.Object {
	b := New("toy")
	f(b)
	b.Stop()
	return b.MustBuild()
}

// TestFramesMatchHandSpelling holds every frame helper to the hand-written
// spelling it replaced in internal/prim (copied from the parent commit as
// the reference): built into a toy kernel, helper and reference must yield
// the same object — instructions, operand order, branch targets, statics and
// fixups — and the helper must panic when its scratch registers alias.
func TestFramesMatchHandSpelling(t *testing.T) {
	r := R
	cases := []struct {
		name       string
		frame, ref func(b *Builder)
		alias      func(b *Builder) // nil: the frame takes no scratch registers
	}{
		{
			name:  "TaskletRange",
			frame: func(b *Builder) { b.TaskletRange(r(0), r(1), r(2), r(3)) },
			ref: func(b *Builder) {
				b.Add(r(3), r(2), NTH)
				b.Subi(r(3), r(3), 1)
				b.Div(r(3), r(3), NTH)
				b.Mul(r(0), r(3), ID)
				b.Add(r(1), r(0), r(3))
				b.Jle(r(1), r(2), "c1")
				b.Mov(r(1), r(2))
				b.Label("c1")
				b.Jle(r(0), r(2), "c2")
				b.Mov(r(0), r(2))
				b.Label("c2")
			},
			alias: func(b *Builder) { b.TaskletRange(r(0), r(1), r(2), r(0)) },
		},
		{
			name:  "TaskletRangeAligned",
			frame: func(b *Builder) { b.TaskletRangeAligned(r(0), r(1), r(2), r(3), 64) },
			ref: func(b *Builder) {
				b.Add(r(3), r(2), NTH)
				b.Subi(r(3), r(3), 1)
				b.Div(r(3), r(3), NTH)
				b.Addi(r(3), r(3), 63)
				b.Andi(r(3), r(3), -64)
				b.Mul(r(0), r(3), ID)
				b.Add(r(1), r(0), r(3))
				b.Jle(r(1), r(2), "c1")
				b.Mov(r(1), r(2))
				b.Label("c1")
				b.Jle(r(0), r(2), "c2")
				b.Mov(r(0), r(2))
				b.Label("c2")
			},
			alias: func(b *Builder) { b.TaskletRangeAligned(r(0), r(0), r(2), r(3), 2) },
		},
		{
			name:  "LoadArgs",
			frame: func(b *Builder) { b.LoadArgs(0, r(0), r(1), r(2)); b.LoadArgs(5, r(5), r(6)) },
			ref: func(b *Builder) {
				b.LoadArg(r(0), 0)
				b.LoadArg(r(1), 1)
				b.LoadArg(r(2), 2)
				b.LoadArg(r(5), 5)
				b.LoadArg(r(6), 6)
			},
			alias: func(b *Builder) { b.LoadArgs(0, r(0), r(1), r(0)) },
		},
		{
			name: "TaskletStatic+TaskletPtr", // red.go: buf + pBuf
			frame: func(b *Builder) {
				b.TaskletPtr(r(7), b.TaskletStatic("buf", 128*4), 128*4, r(5))
			},
			ref: func(b *Builder) {
				buf := b.Static("buf", 16*128*4, 8)
				b.MoviSym(r(7), buf, 0)
				b.Muli(r(5), ID, 128*4)
				b.Add(r(7), r(7), r(5))
			},
			alias: func(b *Builder) { b.TaskletPtr(r(7), b.Static("buf", 8, 8), 8, r(7)) },
		},
		{
			name:  "TaskletSlot", // spmv.go: xb
			frame: func(b *Builder) { b.TaskletSlot(r(22), b.Static("xb", 128, 8), 3, r(8)) },
			ref: func(b *Builder) {
				b.MoviSym(r(22), b.Static("xb", 128, 8), 0)
				b.Lsli(r(8), ID, 3)
				b.Add(r(22), r(22), r(8))
			},
			alias: func(b *Builder) { b.TaskletSlot(r(8), b.Static("xb", 128, 8), 3, r(8)) },
		},
		{
			name: "Index", // bfs.go: &rowptr[v]; spmv.go cache: &vals[rS] via p1
			frame: func(b *Builder) {
				b.Index(r(9), r(0), r(15), 2)
				b.IndexVia(r(14), r(2), r(10), 2, r(13))
			},
			ref: func(b *Builder) {
				b.Lsli(r(9), r(15), 2)
				b.Add(r(9), r(0), r(9))
				b.Lsli(r(13), r(10), 2)
				b.Add(r(14), r(2), r(13))
			},
			alias: func(b *Builder) { b.Index(r(9), r(9), r(15), 2) },
		},
		{
			name:  "ClampSub", // bfs.go: frontier words per chunk
			frame: func(b *Builder) { b.ClampSub(r(11), r(8), r(10), 2048) },
			ref: func(b *Builder) {
				b.Sub(r(11), r(8), r(10))
				b.Jlti(r(11), 2048, "wsized")
				b.Movi(r(11), 2048)
				b.Label("wsized")
			},
			alias: func(b *Builder) { b.ClampSub(r(8), r(8), r(10), 2048) },
		},
		{
			name: "ChunkLoop+StageWords", // bs.go: the query chunk loop, flush in body
			frame: func(b *Builder) {
				b.ChunkLoop(r(5), r(6), r(16), 64, func() {
					b.StageWords(r(13), r(2), r(5), r(16), r(18), r(7))
					b.Nop() // the chunk's work
					b.Sdma(r(15), r(7), r(18))
				}, nil)
			},
			ref: func(b *Builder) {
				b.Label("chunk")
				b.Jge(r(5), r(6), "done")
				b.Sub(r(16), r(6), r(5))
				b.Jlti(r(16), 64, "sized")
				b.Movi(r(16), 64)
				b.Label("sized")
				b.Lsli(r(18), r(16), 2)
				b.Lsli(r(7), r(5), 2)
				b.Add(r(7), r(2), r(7))
				b.Ldma(r(13), r(7), r(18))
				b.Nop()
				b.Sdma(r(15), r(7), r(18))
				b.Add(r(5), r(5), r(16))
				b.Jump("chunk")
				b.Label("done")
			},
			alias: func(b *Builder) { b.StageWords(r(13), r(2), r(5), r(16), r(18), r(18)) },
		},
		{
			name: "StagedLoop", // sel.go: chunk loop with the early-continue flush after the advance
			frame: func(b *Builder) {
				b.StagedLoop(Stage{Cur: r(4), End: r(5), Src: r(0), Elems: r(10), Bytes: r(11),
					Mram: r(12), Buf: r(8), PX: r(13), PEnd: r(14), N: 128}, func() {
					b.Label("inner")
					b.Lw(r(15), r(13), 0)
					b.Addi(r(13), r(13), 4)
					b.Jlt(r(13), r(14), "inner")
				}, func(top string) {
					b.Andi(r(6), r(17), -2)
					b.Jeqi(r(6), 0, top)
					b.Nop()
				})
			},
			ref: func(b *Builder) {
				b.Label("chunk")
				b.Jge(r(4), r(5), "tail")
				b.Sub(r(10), r(5), r(4))
				b.Jlti(r(10), 128, "sized")
				b.Movi(r(10), 128)
				b.Label("sized")
				b.Lsli(r(11), r(10), 2)
				b.Lsli(r(12), r(4), 2)
				b.Add(r(12), r(0), r(12))
				b.Ldma(r(8), r(12), r(11))
				b.Mov(r(13), r(8))
				b.Add(r(14), r(8), r(11))
				b.Label("inner")
				b.Lw(r(15), r(13), 0)
				b.Addi(r(13), r(13), 4)
				b.Jlt(r(13), r(14), "inner")
				b.Add(r(4), r(4), r(10))
				b.Andi(r(6), r(17), -2)
				b.Jeqi(r(6), 0, "chunk")
				b.Nop()
				b.Jump("chunk")
				b.Label("tail")
			},
			alias: func(b *Builder) {
				b.StagedLoop(Stage{Cur: r(4), End: r(5), Src: r(0), Elems: r(10), Bytes: r(11),
					Mram: r(12), Buf: r(8), PX: r(13), PEnd: r(13), N: 128}, func() {}, nil)
			},
		},
		{
			name: "PtrRange+WalkWords", // va.go cache mode
			frame: func(b *Builder) {
				b.PtrRange(r(4), r(5), r(6), r(10), r(7), r(0), r(8), r(1), r(9), r(2))
				b.WalkWords(r(10), func() {
					b.Lw(r(11), r(7), 0)
					b.Sw(r(11), r(9), 0)
				}, r(7), r(8), r(9))
			},
			ref: func(b *Builder) {
				b.Lsli(r(6), r(4), 2)
				b.Add(r(7), r(0), r(6))
				b.Add(r(8), r(1), r(6))
				b.Add(r(9), r(2), r(6))
				b.Lsli(r(6), r(5), 2)
				b.Add(r(10), r(0), r(6))
				b.Label("loop")
				b.Jge(r(7), r(10), "done")
				b.Lw(r(11), r(7), 0)
				b.Sw(r(11), r(9), 0)
				b.Addi(r(7), r(7), 4)
				b.Addi(r(8), r(8), 4)
				b.Addi(r(9), r(9), 4)
				b.Jump("loop")
				b.Label("done")
			},
			alias: func(b *Builder) { b.PtrRange(r(4), r(5), r(6), r(10), r(6), r(0)) },
		},
		{
			name: "PublishAndWait", // red.go scratchpad: partial, barrier, tasklet 0 goes on
			frame: func(b *Builder) {
				bar := b.NewBarrier("bar")
				b.PublishAndWait(b.Static("partials", 64, 8), r(6), r(5), r(13), bar, r(14), r(15), r(16), "done")
				b.Label("done")
			},
			ref: func(b *Builder) {
				bar := b.NewBarrier("bar")
				partials := b.Static("partials", 64, 8)
				b.MoviSym(r(5), partials, 0)
				b.Lsli(r(13), ID, 2)
				b.Add(r(5), r(5), r(13))
				b.Sw(r(6), r(5), 0)
				b.Wait(bar, r(14), r(15), r(16))
				b.Jnei(ID, 0, "done")
				b.Label("done")
			},
			alias: func(b *Builder) {
				b.PublishAndWait(b.Static("p", 64, 8), r(5), r(5), r(13), b.NewBarrier("bar"), r(14), r(15), r(16), "x")
			},
		},
		{
			name:  "CopyWords", // hst.go: the cache-mode ship loops
			frame: func(b *Builder) { b.CopyWords(r(7), r(2), r(8), r(9)) },
			ref: func(b *Builder) {
				b.Label("out")
				b.Lw(r(9), r(7), 0)
				b.Sw(r(9), r(2), 0)
				b.Addi(r(7), r(7), 4)
				b.Addi(r(2), r(2), 4)
				b.AddiBr(r(8), r(8), -1, CondNZ, "out")
			},
			alias: func(b *Builder) { b.CopyWords(r(7), r(2), r(8), r(8)) },
		},
		{
			name: "PushResult resident", // gemv.go: ybuf pointer kept in r11
			frame: func(b *Builder) {
				b.Label("rowloop")
				b.PushResult(ResultBuffer{Acc: r(15), Cnt: r(13), Row: r(12), Flush: r(14), Out: r(2), N: 32,
					Buf: func(_, _ Reg) Reg { return r(11) }}, r(7), r(7), r(7), "rowloop")
			},
			ref: func(b *Builder) {
				b.Label("rowloop")
				b.Lsli(r(7), r(13), 2)
				b.Add(r(7), r(11), r(7))
				b.Sw(r(15), r(7), 0)
				b.Addi(r(13), r(13), 1)
				b.Addi(r(12), r(12), 1)
				b.Jlti(r(13), 32, "rowloop")
				b.Lsli(r(7), r(14), 2)
				b.Add(r(7), r(2), r(7))
				b.Sdmai(r(11), r(7), 32*4)
				b.Mov(r(14), r(12))
				b.Movi(r(13), 0)
				b.Jump("rowloop")
			},
			alias: func(b *Builder) {
				b.PushResult(ResultBuffer{Acc: r(15), Cnt: r(13), Row: r(12), Flush: r(14), Out: r(2), N: 32,
					Buf: func(_, _ Reg) Reg { return r(11) }}, r(13), r(7), r(7), "x")
			},
		},
		{
			name: "PushResult recomputed", // spmv.go: ybuf pointer rebuilt at each use
			frame: func(b *Builder) {
				ybuf := b.TaskletStatic("ybuf", 32*4)
				b.Label("rowloop")
				b.PushResult(ResultBuffer{Acc: r(12), Cnt: r(20), Row: r(9), Flush: r(21), Out: r(4), N: 32,
					Buf: func(p, tmp Reg) Reg { b.TaskletPtr(p, ybuf, 32*4, tmp); return p }},
					r(8), r(10), r(11), "rowloop")
			},
			ref: func(b *Builder) {
				ybuf := b.Static("ybuf", 16*32*4, 8)
				b.Label("rowloop")
				b.MoviSym(r(8), ybuf, 0)
				b.Muli(r(10), ID, 32*4)
				b.Add(r(8), r(8), r(10))
				b.Lsli(r(10), r(20), 2)
				b.Add(r(8), r(8), r(10))
				b.Sw(r(12), r(8), 0)
				b.Addi(r(20), r(20), 1)
				b.Addi(r(9), r(9), 1)
				b.Jlti(r(20), 32, "rowloop")
				b.Lsli(r(8), r(21), 2)
				b.Add(r(8), r(4), r(8))
				b.MoviSym(r(10), ybuf, 0)
				b.Muli(r(11), ID, 32*4)
				b.Add(r(10), r(10), r(11))
				b.Sdmai(r(10), r(8), 32*4)
				b.Mov(r(21), r(9))
				b.Movi(r(20), 0)
				b.Jump("rowloop")
			},
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := toy(c.frame), toy(c.ref)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("frame emits\n%+v\nhand spelling emits\n%+v", got, want)
			}
			if c.alias == nil {
				return
			}
			defer func() {
				if recover() == nil {
					t.Error("aliased registers did not panic")
				}
			}()
			c.alias(New("alias"))
		})
	}
}
