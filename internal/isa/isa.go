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
	// address register, rb/imm = length in bytes (DMALengthOK).
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

func (op Opcode) String() string {
	if op.Valid() {
		return ops[op].name
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

// Format returns the encoding format of an opcode; FmtNone for an undefined
// one.
func (op Opcode) Format() Format { return op.info().format }

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

// Class returns the instruction-mix class: the opcode's row, save that an
// ALU op or mov with a live condition is "arithmetic with branch", as are
// the compare-and-branch opcodes.
func (in Instruction) Class() Class {
	c := in.Op.info().class
	if in.Cond != CondNone && (c == ClassArith || in.Op == OpMOV) {
		return ClassArithBranch
	}
	return c
}

// IsStore reports whether the instruction writes WRAM via the store port.
func (in Instruction) IsStore() bool { return in.Op.info().store }

// MemAccess returns the access width in bytes and whether the loaded value
// is sign-extended for load/store opcodes, or (0, false) for every other
// opcode. It is the decode-time source of truth consumed by the core's µop
// tables.
func (in Instruction) MemAccess() (size int, signExtend bool) {
	r := in.Op.info()
	return int(r.size), r.signExt
}

// SrcRegs appends the GPR indices this instruction reads to dst and returns
// it, in field order: rd where the opcode's row reads it, then ra and rb
// where a live slot of its layout holds them. Special registers are
// excluded: they live outside the odd/even split register file and cannot
// conflict.
func (in Instruction) SrcRegs(dst []RegID) []RegID {
	if !in.Op.Valid() {
		return dst
	}
	add := func(r RegID, read bool) {
		if read && r.IsGPR() {
			dst = append(dst, r)
		}
	}
	live := in.live()
	add(in.Rd, ops[in.Op].rdSrc)
	add(in.Ra, live&(1<<FieldRa) != 0)
	add(in.Rb, live&(1<<FieldRb) != 0)
	return dst
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

// MaxDMABytes is the longest transfer one DMA instruction moves.
const MaxDMABytes = 2048

// DMALengthOK reports whether a DMA instruction may move n bytes: a positive
// multiple of 8, at most MaxDMABytes.
func DMALengthOK(n int32) bool { return n > 0 && n%8 == 0 && n <= MaxDMABytes }
