// Package isa defines the UPMEM-style instruction set architecture modeled by
// uPIMulator-Go: a 32-bit RISC ISA with 24 general-purpose registers, merged
// arithmetic+branch instruction forms, explicit WRAM load/stores, MRAM DMA
// instructions, and acquire/release synchronization on a 256-bit atomic
// region. Instructions encode into 48-bit (6-byte) words, matching the IRAM
// access granularity reported in the paper (Table I: 6B per clock, 24KB IRAM
// = 4096 instructions).
package isa

import "fmt"

// RegID identifies a register operand. Indices 0..23 are the general-purpose
// registers r0..r23; indices >= 24 name special read-only registers.
type RegID uint8

// Special registers. Writes to them are ignored by the functional model
// (except via the dedicated instructions that define them).
const (
	NumGPR RegID = 24 // r0..r23, per UPMEM DPU (Table I)

	// Zero always reads 0.
	Zero RegID = 24
	// ID reads the executing tasklet's ID (0..NumTasklets-1).
	ID RegID = 25
	// NTasklets reads the number of tasklets launched on this DPU.
	NTasklets RegID = 26
	// DPUID reads the DPU's rank-global index.
	DPUID RegID = 27

	// NumRegs is the size of the architectural register name space.
	NumRegs RegID = 28
)

// IsGPR reports whether r names a writable general-purpose register.
func (r RegID) IsGPR() bool { return r < NumGPR }

// Valid reports whether r names any architectural register.
func (r RegID) Valid() bool { return r < NumRegs }

// Parity reports the odd/even register-file bank a GPR lives in. The UPMEM
// DPU splits its register file into an even and an odd bank; a thread cannot
// read two distinct registers of the same parity in one cycle (structural
// hazard). Special registers live outside the split RF and never conflict.
func (r RegID) Parity() int {
	if !r.IsGPR() {
		return -1
	}
	return int(r & 1)
}

func (r RegID) String() string {
	switch {
	case r.IsGPR():
		return fmt.Sprintf("r%d", uint8(r))
	case r == Zero:
		return "zero"
	case r == ID:
		return "id"
	case r == NTasklets:
		return "nth"
	case r == DPUID:
		return "dpuid"
	default:
		return fmt.Sprintf("reg?%d", uint8(r))
	}
}

// GPR returns the RegID for general-purpose register n, panicking if n is out
// of range. It exists so kernel builders fail fast on bad allocations.
func GPR(n int) RegID {
	if n < 0 || n >= int(NumGPR) {
		panic(fmt.Sprintf("isa: GPR index %d out of range [0,%d)", n, NumGPR))
	}
	return RegID(n)
}

// Cond is the condition selector of merged arithmetic+branch instructions.
// The condition is evaluated on the 32-bit ALU result; when it holds, the
// instruction branches to its target in the same cycle it computes.
type Cond uint8

const (
	CondNone Cond = iota // never branch (plain arithmetic)
	CondZ                // result == 0
	CondNZ               // result != 0
	CondNeg              // result < 0 (signed)
	CondPos              // result >= 0 (signed)
	CondGTZ              // result > 0 (signed)
	CondLEZ              // result <= 0 (signed)
	CondTrue             // always branch

	NumConds = 8
)

var condNames = [NumConds]string{"", "z", "nz", "neg", "pos", "gtz", "lez", "true"}

func (c Cond) String() string {
	if int(c) < len(condNames) {
		return condNames[c]
	}
	return fmt.Sprintf("cond?%d", uint8(c))
}

// Valid reports whether c is a defined condition selector.
func (c Cond) Valid() bool { return c < NumConds }

// Eval evaluates the condition against an ALU result.
func (c Cond) Eval(result int32) bool {
	switch c {
	case CondNone:
		return false
	case CondZ:
		return result == 0
	case CondNZ:
		return result != 0
	case CondNeg:
		return result < 0
	case CondPos:
		return result >= 0
	case CondGTZ:
		return result > 0
	case CondLEZ:
		return result <= 0
	case CondTrue:
		return true
	default:
		return false
	}
}

// Opcode enumerates the instruction set.
type Opcode uint8

const (
	// Arithmetic / logic (format RRR or RRI, optional cond+target).
	OpADD Opcode = iota
	OpSUB
	OpAND
	OpOR
	OpXOR
	OpLSL // logical shift left
	OpLSR // logical shift right
	OpASR // arithmetic shift right

	// Multiply / divide (the DPU iterates these through mul_step hardware;
	// they occupy one issue slot like other ALU ops but are tracked as their
	// own instruction-mix class, as in the paper's Fig 9).
	OpMUL  // low 32 bits of signed product
	OpMULH // high 32 bits of signed product
	OpDIV  // signed quotient (quotient of INT_MIN/-1 saturates; x/0 = -1)
	OpREM  // signed remainder (x%0 = x)

	// WRAM loads/stores (scratchpad address space; in cache-centric mode the
	// same opcodes address the DRAM-backed flat space through the D-cache).
	OpLW  // load word (rd <- mem32[ra+imm])
	OpLH  // load half, sign-extended
	OpLHU // load half, zero-extended
	OpLB  // load byte, sign-extended
	OpLBU // load byte, zero-extended
	OpSW  // store word (mem32[ra+imm] <- rd)
	OpSH  // store half
	OpSB  // store byte

	// DMA between MRAM and WRAM. rd = WRAM address register, ra = MRAM
	// address register, rb/imm = length in bytes (8B-aligned, <= 2048).
	OpLDMA // MRAM -> WRAM ("mram_read")
	OpSDMA // WRAM -> MRAM ("mram_write")

	// Compare-and-branch (format Jcc): compare ra against rb or imm.
	OpJEQ
	OpJNE
	OpJLT  // signed <
	OpJLE  // signed <=
	OpJGT  // signed >
	OpJGE  // signed >=
	OpJLTU // unsigned <
	OpJGEU // unsigned >=

	// Control.
	OpJUMP // unconditional jump to target
	OpJREG // jump to instruction index in R[ra]
	OpCALL // r23 <- PC+1; jump to target

	// Immediates / moves.
	OpMOVI // rd <- imm32
	OpMOV  // rd <- R[ra]

	// Synchronization on the atomic region (256 one-bit locks). imm = lock
	// index. ACQUIRE branches to target when the lock is already held, so a
	// spin loop is a single self-targeting instruction — this is what makes
	// lock contention visible as a storm of sync instructions (paper Fig 9,
	// HST-L / TRNS discussion).
	OpACQUIRE
	OpRELEASE

	// Miscellaneous.
	OpNOP
	OpSTOP  // terminate the executing tasklet
	OpPERF  // rd <- performance counter selected by imm (0=cycle, 1=instret)
	OpFAULT // raise a software fault (used for failure-injection tests)

	NumOpcodes = iota
)

var opNames = [NumOpcodes]string{
	OpADD: "add", OpSUB: "sub", OpAND: "and", OpOR: "or", OpXOR: "xor",
	OpLSL: "lsl", OpLSR: "lsr", OpASR: "asr",
	OpMUL: "mul", OpMULH: "mulh", OpDIV: "div", OpREM: "rem",
	OpLW: "lw", OpLH: "lh", OpLHU: "lhu", OpLB: "lb", OpLBU: "lbu",
	OpSW: "sw", OpSH: "sh", OpSB: "sb",
	OpLDMA: "ldma", OpSDMA: "sdma",
	OpJEQ: "jeq", OpJNE: "jne", OpJLT: "jlt", OpJLE: "jle",
	OpJGT: "jgt", OpJGE: "jge", OpJLTU: "jltu", OpJGEU: "jgeu",
	OpJUMP: "jump", OpJREG: "jreg", OpCALL: "call",
	OpMOVI: "movi", OpMOV: "mov",
	OpACQUIRE: "acquire", OpRELEASE: "release",
	OpNOP: "nop", OpSTOP: "stop", OpPERF: "perf", OpFAULT: "fault",
}

func (op Opcode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

// Valid reports whether op is a defined opcode.
func (op Opcode) Valid() bool { return op < NumOpcodes }

// Format describes how an instruction's operand fields are interpreted and
// packed into the 48-bit encoding. A format's slots, in bit order with their
// widths, are its row of rows in layout.go; the comments give the operands
// as the assembly text writes them.
type Format uint8

const (
	FmtRRR  Format = iota // rd, ra, rb|imm [, cond, target]
	FmtRI32               // rd, imm (MOVI)
	FmtMem                // rd, ra, displacement (loads/stores)
	FmtDMA                // rd(wram), ra(mram), rb|length
	FmtJcc                // ra, rb|imm, target
	FmtCtl                // target (JUMP/CALL) or ra (JREG)
	FmtSync               // lock, target (ACQUIRE) / lock (RELEASE)
	FmtNone               // no operands (NOP/STOP) or rd, selector (PERF/FAULT)
)

// FormatOf returns the encoding format of an opcode.
func (op Opcode) Format() Format {
	switch op {
	case OpADD, OpSUB, OpAND, OpOR, OpXOR, OpLSL, OpLSR, OpASR,
		OpMUL, OpMULH, OpDIV, OpREM, OpMOV:
		return FmtRRR
	case OpMOVI:
		return FmtRI32
	case OpLW, OpLH, OpLHU, OpLB, OpLBU, OpSW, OpSH, OpSB:
		return FmtMem
	case OpLDMA, OpSDMA:
		return FmtDMA
	case OpJEQ, OpJNE, OpJLT, OpJLE, OpJGT, OpJGE, OpJLTU, OpJGEU:
		return FmtJcc
	case OpJUMP, OpJREG, OpCALL:
		return FmtCtl
	case OpACQUIRE, OpRELEASE:
		return FmtSync
	default:
		return FmtNone
	}
}

// Class buckets instructions for the instruction-mix characterization
// (paper Fig 9).
type Class uint8

const (
	ClassArith Class = iota
	ClassArithBranch
	ClassMulDiv
	ClassLoadStore
	ClassDMA
	ClassSync
	ClassEtc

	NumClasses = 7
)

var classNames = [NumClasses]string{
	"Arithmetic", "Arithmetic with branch", "Multiply, divide",
	"Load/store to scratchpad", "DMA to/from DRAM", "Synchronization", "etc.",
}

func (c Class) String() string {
	if int(c) < len(classNames) {
		return classNames[c]
	}
	return fmt.Sprintf("class?%d", uint8(c))
}

// Instruction is the decoded representation consumed by the simulator. PC
// values and branch targets are instruction indices into IRAM (the hardware
// multiplies by 6 bytes).
type Instruction struct {
	Op     Opcode
	Rd     RegID
	Ra     RegID
	Rb     RegID
	Imm    int32
	UseImm bool
	Cond   Cond
	Target uint16 // branch target, instruction index (13 bits encoded)
}

// Class returns the instruction-mix class, accounting for merged
// arithmetic+branch forms (an ALU op with a live condition is classified as
// "arithmetic with branch", as are the compare-and-branch opcodes).
func (in Instruction) Class() Class {
	switch in.Op.Format() {
	case FmtRRR:
		switch in.Op {
		case OpMUL, OpMULH, OpDIV, OpREM:
			return ClassMulDiv
		case OpMOV:
			if in.Cond != CondNone {
				return ClassArithBranch
			}
			return ClassEtc
		}
		if in.Cond != CondNone {
			return ClassArithBranch
		}
		return ClassArith
	case FmtRI32:
		return ClassEtc
	case FmtMem:
		return ClassLoadStore
	case FmtDMA:
		return ClassDMA
	case FmtJcc:
		return ClassArithBranch
	case FmtSync:
		return ClassSync
	default:
		return ClassEtc
	}
}

// IsStore reports whether the instruction writes WRAM via the store port.
func (in Instruction) IsStore() bool {
	switch in.Op {
	case OpSW, OpSH, OpSB:
		return true
	}
	return false
}

// IsLoad reports whether the instruction reads WRAM via the load port.
func (in Instruction) IsLoad() bool {
	switch in.Op {
	case OpLW, OpLH, OpLHU, OpLB, OpLBU:
		return true
	}
	return false
}

// MemAccess returns the access width in bytes and whether the loaded value
// is sign-extended for load/store opcodes, or (0, false) for every other
// opcode. It is the decode-time source of truth consumed by the core's µop
// tables.
func (in Instruction) MemAccess() (size int, signExtend bool) {
	switch in.Op {
	case OpLW, OpSW:
		return 4, false
	case OpLH:
		return 2, true
	case OpLHU, OpSH:
		return 2, false
	case OpLB:
		return 1, true
	case OpLBU, OpSB:
		return 1, false
	}
	return 0, false
}

// SrcRegs appends the GPR indices this instruction reads to dst and returns
// it. Special registers are excluded: they live outside the odd/even split
// register file and cannot conflict.
func (in Instruction) SrcRegs(dst []RegID) []RegID {
	add := func(r RegID) {
		if r.IsGPR() {
			dst = append(dst, r)
		}
	}
	switch in.Op.Format() {
	case FmtRRR:
		if in.Op == OpMOV {
			add(in.Ra)
			break
		}
		add(in.Ra)
		if !in.UseImm {
			add(in.Rb)
		}
	case FmtMem:
		add(in.Ra) // address base
		if in.IsStore() {
			add(in.Rd) // store data operand
		}
	case FmtDMA:
		add(in.Rd)
		add(in.Ra)
		if !in.UseImm {
			add(in.Rb)
		}
	case FmtJcc:
		add(in.Ra)
		if !in.UseImm {
			add(in.Rb)
		}
	case FmtCtl:
		if in.Op == OpJREG {
			add(in.Ra)
		}
	}
	return dst
}

// DstReg returns the GPR written by the instruction, or (0,false) when it
// writes none.
func (in Instruction) DstReg() (RegID, bool) {
	switch in.Op.Format() {
	case FmtRRR, FmtRI32:
		if in.Rd.IsGPR() {
			return in.Rd, true
		}
	case FmtMem:
		if in.IsLoad() && in.Rd.IsGPR() {
			return in.Rd, true
		}
	case FmtCtl:
		if in.Op == OpCALL {
			return RegID(23), true
		}
	case FmtNone:
		if in.Op == OpPERF && in.Rd.IsGPR() {
			return in.Rd, true
		}
	}
	return 0, false
}

// RFConflict reports whether the instruction reads two distinct GPRs that
// live in the same odd/even register-file bank — the structural hazard the
// paper attributes Idle(RF) cycles to. Reading the same register twice uses
// one port and does not conflict.
func (in Instruction) RFConflict() bool {
	var buf [2]RegID
	srcs := in.SrcRegs(buf[:0])
	return len(srcs) == 2 && srcs[0] != srcs[1] && srcs[0].Parity() == srcs[1].Parity()
}

// CanBranch reports whether the instruction may redirect control flow to its
// Target field: whether its layout's target slot is live.
func (in Instruction) CanBranch() bool {
	return in.Op.Valid() && in.live()&(1<<FieldTarget) != 0
}
