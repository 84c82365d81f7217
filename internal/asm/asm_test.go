package asm

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"upim/internal/config"
	"upim/internal/isa"
	"upim/internal/linker"
)

const vectorAddSrc = `
; element-wise vector add over a staged WRAM buffer (paper Fig 2 analogue)
.alloc bufA 256
.alloc bufB 256
.word  magic 0xdeadbeef 42

		movi r0, bufA        ; symbol fixup
		movi r1, bufB
		movi r2, 0           ; i = 0
loop:	lw   r3, r0, 0
		lw   r4, r1, 0
		add  r5, r3, r4
		sw   r5, r0, 0
		add  r0, r0, 4
		add  r1, r1, 4
		add  r2, r2, 1
		jlt  r2, 64, loop
		stop
`

func TestAssembleVectorAdd(t *testing.T) {
	obj, err := Assemble("va", vectorAddSrc)
	if err != nil {
		t.Fatal(err)
	}
	if len(obj.Instrs) != 12 {
		t.Fatalf("instrs = %d, want 12", len(obj.Instrs))
	}
	if len(obj.Statics) != 3 {
		t.Fatalf("statics = %d, want 3", len(obj.Statics))
	}
	if len(obj.Fixups) != 2 {
		t.Fatalf("fixups = %d, want 2", len(obj.Fixups))
	}
	// The jlt targets the loop label (instruction 3).
	jlt := obj.Instrs[10]
	if jlt.Op != isa.OpJLT || jlt.Target != 3 || !jlt.UseImm || jlt.Imm != 64 {
		t.Fatalf("jlt = %+v", jlt)
	}
	// Link resolves the movi fixups.
	p, err := linker.Link(obj, config.Default())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.SymbolAddr("bufA")
	if p.Instrs[0].Imm != int32(a) {
		t.Fatalf("fixup not applied: %d != %d", p.Instrs[0].Imm, a)
	}
	// The .word initializer is little-endian.
	magic := p.Symbols["magic"]
	if len(magic.Init) != 8 || magic.Init[0] != 0xef || magic.Init[3] != 0xde {
		t.Fatalf("magic init = %x", magic.Init)
	}
}

func TestAssembleConditionalArithmetic(t *testing.T) {
	src := `
top:	add r1, r1, -1, nz, top
		sub r2, r1, r3, z, done
		mov r4, id
done:	stop
`
	obj, err := Assemble("cond", src)
	if err != nil {
		t.Fatal(err)
	}
	in := obj.Instrs[0]
	if in.Cond != isa.CondNZ || in.Target != 0 || in.Imm != -1 || !in.UseImm {
		t.Fatalf("cond-arith = %+v", in)
	}
	if obj.Instrs[1].Target != 3 {
		t.Fatalf("forward label = %d, want 3", obj.Instrs[1].Target)
	}
	if obj.Instrs[2].Ra != isa.ID {
		t.Fatalf("mov ra = %v, want id", obj.Instrs[2].Ra)
	}
}

func TestAssembleSyncAndDMA(t *testing.T) {
	src := `
spin:	acquire 7, spin
		ldma r0, r1, 2048
		sdma r2, r3, r4
		release 7
		stop
`
	obj, err := Assemble("sync", src)
	if err != nil {
		t.Fatal(err)
	}
	if obj.Instrs[0].Op != isa.OpACQUIRE || obj.Instrs[0].Target != 0 || obj.Instrs[0].Imm != 7 {
		t.Fatalf("acquire = %+v", obj.Instrs[0])
	}
	if obj.Instrs[1].Op != isa.OpLDMA || !obj.Instrs[1].UseImm || obj.Instrs[1].Imm != 2048 {
		t.Fatalf("ldma = %+v", obj.Instrs[1])
	}
	if obj.Instrs[2].Op != isa.OpSDMA || obj.Instrs[2].UseImm || obj.Instrs[2].Rb != 4 {
		t.Fatalf("sdma = %+v", obj.Instrs[2])
	}
}

// syntaxErrorCases are sources the assembler must reject, each with a piece
// of the reason it must give; errors.golden holds their full text.
var syntaxErrorCases = []struct {
	name, src, wantSub string
}{
	{"unknown op", "frob r1, r2, r3\nstop", "unknown mnemonic"},
	{"unknown reg", "add r1, r2, r99\nstop", "neither register nor immediate"},
	{"bad reg dest", "add r99, r2, r3\nstop", "unknown register"},
	{"dup label", "a:\na:\nstop", "duplicate label"},
	{"bad target", "jump nowhere\nstop", "bad branch target"},
	{"operand count", "add r1, r2\nstop", "wrong operand count"},
	{"bad directive", ".frob x 1\nstop", "unknown directive"},
	{"alloc args", ".alloc x\nstop", ".alloc wants"},
	{"bad cond", "add r1, r2, r3, frob, 0\nstop", "unknown condition"},
	{"movi junk", "movi r1, junksym\nstop", "neither immediate nor symbol"},
	{"imm overflow", "add r1, r2, 99999\nstop", "out of 14-bit signed range"},
	{"empty", "; nothing\n", "no instructions"},
}

func TestSyntaxErrors(t *testing.T) {
	for _, c := range syntaxErrorCases {
		if _, err := Assemble(c.name, c.src); err == nil || !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.wantSub)
		}
	}
}

func TestErrorsCarryLineNumbers(t *testing.T) {
	_, err := Assemble("l", "nop\nnop\nbadop r1\nstop")
	se, ok := err.(*SyntaxError)
	if !ok || se.Line != 3 {
		t.Fatalf("err = %v, want SyntaxError on line 3", err)
	}
}

// Property: disassembling a random program and re-assembling it reproduces
// the exact instruction stream (asm <-> disasm round trip).
func TestQuickAsmDisasmRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(40)
		prog := make([]isa.Instruction, 0, n)
		for i := 0; i < n; i++ {
			in := randInstruction(r, n)
			prog = append(prog, in)
		}
		var src strings.Builder
		for _, in := range prog {
			src.WriteString(in.String())
			src.WriteByte('\n')
		}
		obj, err := Assemble("rt", src.String())
		if err != nil {
			t.Logf("assemble failed: %v\nsource:\n%s", err, src.String())
			return false
		}
		if len(obj.Instrs) != n {
			return false
		}
		for i := range prog {
			if obj.Instrs[i] != prog[i] {
				t.Logf("instr %d: %s -> %+v, want %+v", i, prog[i], obj.Instrs[i], prog[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// randInstruction generates canonical instructions with branch targets inside
// the program (so they re-assemble as numeric targets).
func randInstruction(r *rand.Rand, progLen int) isa.Instruction {
	for {
		in := isa.Instruction{Op: isa.Opcode(r.Intn(isa.NumOpcodes))}
		reg := func() isa.RegID { return isa.RegID(r.Intn(int(isa.NumRegs))) }
		simm := func(bits uint) int32 { return int32(r.Int63n(1<<bits)) - 1<<(bits-1) }
		uimm := func(bits uint) int32 { return int32(r.Int63n(1 << bits)) }
		target := func() uint16 { return uint16(r.Intn(progLen)) }
		switch in.Op.Format() {
		case isa.FmtRRR:
			in.Rd, in.Ra = reg(), reg()
			if in.Op != isa.OpMOV {
				if r.Intn(2) == 0 {
					in.UseImm, in.Imm = true, simm(isa.RRRImmBits)
				} else {
					in.Rb = reg()
				}
			}
			if r.Intn(2) == 0 {
				in.Cond = isa.Cond(1 + r.Intn(isa.NumConds-1))
				in.Target = target()
			}
		case isa.FmtRI32:
			in.Rd, in.Imm = reg(), int32(r.Uint32())
		case isa.FmtMem:
			in.Rd, in.Ra, in.Imm = reg(), reg(), simm(isa.MemImmBits)
		case isa.FmtDMA:
			in.Rd, in.Ra = reg(), reg()
			if r.Intn(2) == 0 {
				in.UseImm, in.Imm = true, uimm(isa.DMAImmBits)
			} else {
				in.Rb = reg()
			}
		case isa.FmtJcc:
			in.Ra, in.Target = reg(), target()
			if r.Intn(2) == 0 {
				in.UseImm, in.Imm = true, simm(isa.JccImmBits)
			} else {
				in.Rb = reg()
			}
		case isa.FmtCtl:
			if in.Op == isa.OpJREG {
				in.Ra = reg()
			} else {
				in.Target = target()
			}
		case isa.FmtSync:
			in.Imm = uimm(8)
			if in.Op == isa.OpACQUIRE {
				in.Target = target()
			}
		case isa.FmtNone:
			if in.Op == isa.OpPERF || in.Op == isa.OpFAULT {
				in.Rd, in.Imm = isa.RegID(r.Intn(int(isa.NumGPR))), uimm(8)
			}
		}
		if in.Validate() == nil {
			return in
		}
	}
}
