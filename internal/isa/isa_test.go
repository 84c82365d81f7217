package isa

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegisterNames(t *testing.T) {
	cases := []struct {
		r    RegID
		want string
	}{
		{GPR(0), "r0"}, {GPR(23), "r23"}, {Zero, "zero"}, {ID, "id"},
		{NTasklets, "nth"}, {DPUID, "dpuid"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("RegID(%d).String() = %q, want %q", c.r, got, c.want)
		}
		back, ok := RegByName(c.want)
		if !ok || back != c.r {
			t.Errorf("RegByName(%q) = %v,%v, want %v", c.want, back, ok, c.r)
		}
	}
}

func TestGPRPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("GPR(24) did not panic")
		}
	}()
	GPR(24)
}

func TestParity(t *testing.T) {
	if GPR(0).Parity() != 0 || GPR(2).Parity() != 0 || GPR(1).Parity() != 1 {
		t.Error("GPR parity wrong")
	}
	if Zero.Parity() != -1 || ID.Parity() != -1 {
		t.Error("special registers must have no parity")
	}
}

func TestCondEval(t *testing.T) {
	cases := []struct {
		c    Cond
		v    int32
		want bool
	}{
		{CondNone, 0, false}, {CondZ, 0, true}, {CondZ, 1, false},
		{CondNZ, 1, true}, {CondNZ, 0, false},
		{CondNeg, -1, true}, {CondNeg, 0, false},
		{CondPos, 0, true}, {CondPos, -5, false},
		{CondGTZ, 1, true}, {CondGTZ, 0, false},
		{CondLEZ, 0, true}, {CondLEZ, 1, false},
		{CondTrue, 123, true},
	}
	for _, c := range cases {
		if got := c.c.Eval(c.v); got != c.want {
			t.Errorf("%v.Eval(%d) = %v, want %v", c.c, c.v, got, c.want)
		}
	}
}

func TestOpcodeNamesRoundTrip(t *testing.T) {
	for op := Opcode(0); op < NumOpcodes; op++ {
		name := op.String()
		if name == "" {
			t.Fatalf("opcode %d has no name", op)
		}
		back, ok := OpcodeByName(name)
		if !ok || back != op {
			t.Errorf("OpcodeByName(%q) = %v,%v, want %v", name, back, ok, op)
		}
	}
}

func TestClassification(t *testing.T) {
	cases := []struct {
		in   Instruction
		want Class
	}{
		{Instruction{Op: OpADD, Rd: 0, Ra: 1, Rb: 2}, ClassArith},
		{Instruction{Op: OpADD, Rd: 0, Ra: 1, Rb: 2, Cond: CondNZ, Target: 5}, ClassArithBranch},
		{Instruction{Op: OpMUL, Rd: 0, Ra: 1, Rb: 2}, ClassMulDiv},
		{Instruction{Op: OpDIV, Rd: 0, Ra: 1, Rb: 2}, ClassMulDiv},
		{Instruction{Op: OpLW, Rd: 0, Ra: 1}, ClassLoadStore},
		{Instruction{Op: OpSB, Rd: 0, Ra: 1}, ClassLoadStore},
		{Instruction{Op: OpLDMA, Rd: 0, Ra: 1, Rb: 2}, ClassDMA},
		{Instruction{Op: OpJEQ, Ra: 1, Rb: 2, Target: 3}, ClassArithBranch},
		{Instruction{Op: OpACQUIRE, Imm: 4, Target: 9}, ClassSync},
		{Instruction{Op: OpRELEASE, Imm: 4}, ClassSync},
		{Instruction{Op: OpJUMP, Target: 7}, ClassEtc},
		{Instruction{Op: OpMOVI, Rd: 3, Imm: 42}, ClassEtc},
		{Instruction{Op: OpMOV, Rd: 3, Ra: 4}, ClassEtc},
		{Instruction{Op: OpNOP}, ClassEtc},
	}
	for _, c := range cases {
		if got := c.in.Class(); got != c.want {
			t.Errorf("%s: Class() = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestRFConflict(t *testing.T) {
	cases := []struct {
		in   Instruction
		want bool
	}{
		// two distinct even sources -> conflict
		{Instruction{Op: OpADD, Rd: 1, Ra: 2, Rb: 4}, true},
		// two distinct odd sources -> conflict
		{Instruction{Op: OpADD, Rd: 0, Ra: 1, Rb: 3}, true},
		// mixed parity -> no conflict
		{Instruction{Op: OpADD, Rd: 0, Ra: 1, Rb: 2}, false},
		// same register twice -> single port, no conflict
		{Instruction{Op: OpADD, Rd: 0, Ra: 2, Rb: 2}, false},
		// immediate form reads one register
		{Instruction{Op: OpADD, Rd: 0, Ra: 2, UseImm: true, Imm: 4}, false},
		// special registers never conflict
		{Instruction{Op: OpADD, Rd: 0, Ra: Zero, Rb: ID}, false},
		// store reads data (rd) and base (ra)
		{Instruction{Op: OpSW, Rd: 2, Ra: 4}, true},
		{Instruction{Op: OpSW, Rd: 2, Ra: 3}, false},
		// load reads only the base
		{Instruction{Op: OpLW, Rd: 2, Ra: 4}, false},
		// jcc register form
		{Instruction{Op: OpJEQ, Ra: 3, Rb: 5, Target: 1}, true},
		// DMA reads wram base, mram base and length
		{Instruction{Op: OpLDMA, Rd: 2, Ra: 4, UseImm: true, Imm: 64}, true},
	}
	for _, c := range cases {
		if got := c.in.RFConflict(); got != c.want {
			t.Errorf("%s: RFConflict() = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestDstReg(t *testing.T) {
	if d, ok := (Instruction{Op: OpADD, Rd: 5, Ra: 1, Rb: 2}).DstReg(); !ok || d != 5 {
		t.Error("ADD dst wrong")
	}
	if _, ok := (Instruction{Op: OpSW, Rd: 5, Ra: 1}).DstReg(); ok {
		t.Error("SW must not report a dst")
	}
	if d, ok := (Instruction{Op: OpCALL, Target: 9}).DstReg(); !ok || d != 23 {
		t.Error("CALL must link into r23")
	}
	if _, ok := (Instruction{Op: OpADD, Rd: Zero, Ra: 1, Rb: 2}).DstReg(); ok {
		t.Error("writing zero register is not a real dst")
	}
}

func TestEncodeDecodeExamples(t *testing.T) {
	prog := []Instruction{
		{Op: OpMOVI, Rd: 0, Imm: -123456789},
		{Op: OpADD, Rd: 1, Ra: 0, Rb: 2},
		{Op: OpADD, Rd: 1, Ra: 0, UseImm: true, Imm: -8192},
		{Op: OpSUB, Rd: 1, Ra: 0, Rb: 2, Cond: CondNZ, Target: 17},
		{Op: OpLW, Rd: 3, Ra: 4, Imm: 65532},
		{Op: OpSW, Rd: 3, Ra: 4, Imm: -65536},
		{Op: OpLDMA, Rd: 3, Ra: 4, UseImm: true, Imm: 2048},
		{Op: OpSDMA, Rd: 3, Ra: 4, Rb: 5},
		{Op: OpJEQ, Ra: 3, UseImm: true, Imm: 2097151, Target: MaxTarget},
		{Op: OpJGEU, Ra: 3, Rb: 7, Target: 0},
		{Op: OpJUMP, Target: 100},
		{Op: OpCALL, Target: 42},
		{Op: OpJREG, Ra: 23},
		{Op: OpACQUIRE, Imm: 255, Target: 33},
		{Op: OpRELEASE, Imm: 0},
		{Op: OpMOV, Rd: 9, Ra: ID},
		{Op: OpPERF, Rd: 2, Imm: 1},
		{Op: OpNOP},
		{Op: OpSTOP},
	}
	img, err := EncodeStream(prog)
	if err != nil {
		t.Fatalf("EncodeStream: %v", err)
	}
	if len(img) != len(prog)*WordBytes {
		t.Fatalf("image size = %d, want %d", len(img), len(prog)*WordBytes)
	}
	back, err := DecodeStream(img)
	if err != nil {
		t.Fatalf("DecodeStream: %v", err)
	}
	for i := range prog {
		if back[i] != prog[i] {
			t.Errorf("instruction %d: decode mismatch\n got %+v\nwant %+v", i, back[i], prog[i])
		}
	}
}

func TestEncodeRejectsOverflow(t *testing.T) {
	bad := []Instruction{
		{Op: OpADD, Rd: 1, Ra: 0, UseImm: true, Imm: 8192},          // RRR imm too big
		{Op: OpADD, Rd: 1, Ra: 0, Rb: 2, Cond: CondZ, Target: 9000}, // target too big
		{Op: OpLW, Rd: 1, Ra: 0, Imm: 1 << 20},                      // mem disp too big
		{Op: OpLDMA, Rd: 1, Ra: 0, UseImm: true, Imm: 5000},         // dma len too big
		{Op: OpLDMA, Rd: 1, Ra: 0, UseImm: true, Imm: -8},           // dma len negative
		{Op: OpACQUIRE, Imm: 300, Target: 0},                        // lock index too big
		{Op: Opcode(120), Rd: 1},                                    // invalid opcode
		{Op: OpADD, Rd: 29, Ra: 0, Rb: 2},                           // invalid register
		{Op: OpADD, Rd: 1, Ra: 0, Rb: 2, UseImm: true},              // rb and imm both set
		{Op: OpMOVI, Rd: 1, Imm: 5, Target: 3},                      // non-canonical target
		{Op: OpMOV, Rd: 1, Ra: 2, Target: 5},                        // target without a cond
	}
	for _, in := range bad {
		if _, err := in.Encode(); err == nil {
			t.Errorf("%+v: Encode succeeded, want error", in)
		}
	}
}

func TestDecodeRejects(t *testing.T) {
	for _, w := range []Word{
		{0x7F},                   // opcode 127
		{0xA2, 0x20, 0xA0, 0x00}, // mov r1, r2 with target 5 and no cond
	} {
		if in, err := Decode(w); err == nil {
			t.Errorf("Decode(%x) = %s, want an error", w, in)
		}
	}
}

// randInstruction produces a random canonical instruction — the generator for
// the encode/decode round-trip property.
func randInstruction(r *rand.Rand) Instruction {
	for {
		in := Instruction{Op: Opcode(r.Intn(NumOpcodes))}
		reg := func() RegID { return RegID(r.Intn(int(NumRegs))) }
		gpr := func() RegID { return RegID(r.Intn(int(NumGPR))) }
		simm := func(bits uint) int32 {
			return int32(r.Int63n(1<<bits)) - 1<<(bits-1)
		}
		uimm := func(bits uint) int32 { return int32(r.Int63n(1 << bits)) }
		target := func() uint16 { return uint16(r.Intn(MaxTarget + 1)) }
		switch in.Op.Format() {
		case FmtRRR:
			in.Rd, in.Ra = reg(), reg()
			if in.Op != OpMOV {
				if r.Intn(2) == 0 {
					in.UseImm, in.Imm = true, simm(RRRImmBits)
				} else {
					in.Rb = reg()
				}
			}
			if r.Intn(2) == 0 {
				in.Cond = Cond(1 + r.Intn(NumConds-1))
				in.Target = target()
			}
		case FmtRI32:
			in.Rd, in.Imm = reg(), int32(r.Uint32())
		case FmtMem:
			in.Rd, in.Ra, in.Imm = reg(), reg(), simm(MemImmBits)
		case FmtDMA:
			in.Rd, in.Ra = reg(), reg()
			if r.Intn(2) == 0 {
				in.UseImm, in.Imm = true, uimm(DMAImmBits)
			} else {
				in.Rb = reg()
			}
		case FmtJcc:
			in.Ra, in.Target = reg(), target()
			if r.Intn(2) == 0 {
				in.UseImm, in.Imm = true, simm(JccImmBits)
			} else {
				in.Rb = reg()
			}
		case FmtCtl:
			if in.Op == OpJREG {
				in.Ra = reg()
			} else {
				in.Target = target()
			}
		case FmtSync:
			in.Imm = uimm(lockBits)
			if in.Op == OpACQUIRE {
				in.Target = target()
			}
		case FmtNone:
			if in.Op == OpPERF || in.Op == OpFAULT {
				in.Rd, in.Imm = gpr(), uimm(PerfImmBits)
			}
		}
		if in.Validate() == nil {
			return in
		}
	}
}

func TestQuickEncodeDecodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstruction(r)
		w, err := in.Encode()
		if err != nil {
			t.Logf("encode %+v: %v", in, err)
			return false
		}
		back, err := Decode(w)
		if err != nil {
			t.Logf("decode %+v: %v", in, err)
			return false
		}
		if back != in {
			t.Logf("round trip mismatch: %+v -> %+v", in, back)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickSrcRegsAreGPRs(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		in := randInstruction(r)
		for _, s := range in.SrcRegs(nil) {
			if !s.IsGPR() {
				return false
			}
		}
		if d, ok := in.DstReg(); ok && !d.IsGPR() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembleStable(t *testing.T) {
	prog := []Instruction{
		{Op: OpMOVI, Rd: 0, Imm: 7},
		{Op: OpADD, Rd: 1, Ra: 0, Rb: 2, Cond: CondNZ, Target: 0},
		{Op: OpSTOP},
	}
	got := Disassemble(prog)
	want := "   0:  movi r0, 7\n   1:  add r1, r0, r2, nz, 0\n   2:  stop\n"
	if got != want {
		t.Errorf("Disassemble =\n%q\nwant\n%q", got, want)
	}
}

func TestMemAccess(t *testing.T) {
	cases := []struct {
		op      Opcode
		size    int
		signExt bool
	}{
		{OpLW, 4, false}, {OpSW, 4, false},
		{OpLH, 2, true}, {OpLHU, 2, false}, {OpSH, 2, false},
		{OpLB, 1, true}, {OpLBU, 1, false}, {OpSB, 1, false},
	}
	for _, c := range cases {
		size, signExt := Instruction{Op: c.op}.MemAccess()
		if size != c.size || signExt != c.signExt {
			t.Errorf("%s: MemAccess = (%d, %v), want (%d, %v)", c.op, size, signExt, c.size, c.signExt)
		}
	}
	// Every non-memory opcode reports no access.
	for op := Opcode(0); op < NumOpcodes; op++ {
		if op.Format() == FmtMem {
			continue
		}
		if size, _ := (Instruction{Op: op}).MemAccess(); size != 0 {
			t.Errorf("%s: non-memory opcode reports access size %d", op, size)
		}
	}
}
