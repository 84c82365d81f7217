package isa

import (
	"fmt"
	"strings"
)

// A reference model of the layout: Validate, Encode, Decode and String
// spelled out as one switch per format each, independent of the operand
// table (helpers carry a ref prefix). TestLayoutMatchesReference and
// FuzzDecode hold the table-driven code to it word for word.

type refPacker struct {
	v   uint64
	pos uint
}

func (p *refPacker) put(val uint64, bits uint) {
	p.v |= (val & (1<<bits - 1)) << p.pos
	p.pos += bits
}

type refUnpacker struct {
	v   uint64
	pos uint
}

func (u *refUnpacker) get(bits uint) uint64 {
	val := (u.v >> u.pos) & (1<<bits - 1)
	u.pos += bits
	return val
}

func (u *refUnpacker) getSigned(bits uint) int32 {
	raw := u.get(bits)
	sign := uint64(1) << (bits - 1)
	if raw&sign != 0 {
		raw |= ^uint64(0) << bits
	}
	return int32(int64(raw))
}

func refFitsSigned(v int32, bits uint) bool {
	min := -(int32(1) << (bits - 1))
	max := int32(1)<<(bits-1) - 1
	return v >= min && v <= max
}

func refFitsUnsigned(v int32, bits uint) bool {
	return v >= 0 && uint64(v) <= 1<<bits-1
}

func refBoolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func refValidate(in Instruction) error {
	encErr := func(in Instruction, format string, args ...any) error {
		return &EncodeErr{Inst: in, Reason: fmt.Sprintf(format, args...)}
	}
	if !in.Op.Valid() {
		return encErr(in, "invalid opcode %d", uint8(in.Op))
	}
	if !in.Cond.Valid() {
		return encErr(in, "invalid cond %d", uint8(in.Cond))
	}
	if in.Target > MaxTarget {
		return encErr(in, "target %d exceeds %d", in.Target, MaxTarget)
	}
	checkReg := func(name string, r RegID) error {
		if !r.Valid() {
			return encErr(in, "invalid %s register %d", name, uint8(r))
		}
		return nil
	}
	zero := func(cond bool, what string) error {
		if !cond {
			return encErr(in, "non-canonical: %s must be zero for %s format", what, in.Op)
		}
		return nil
	}
	switch refFormat(in.Op) {
	case FmtRRR:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
		if in.Op == OpMOV {
			if err := zero(in.Rb == 0 && in.Imm == 0 && !in.UseImm, "rb/imm"); err != nil {
				return err
			}
			break
		}
		if in.UseImm {
			if !refFitsSigned(in.Imm, RRRImmBits) {
				return encErr(in, "imm %d out of %d-bit signed range", in.Imm, RRRImmBits)
			}
			if err := zero(in.Rb == 0, "rb"); err != nil {
				return err
			}
		} else {
			if err := checkReg("rb", in.Rb); err != nil {
				return err
			}
			if err := zero(in.Imm == 0, "imm"); err != nil {
				return err
			}
		}
		if in.Cond == CondNone {
			if err := zero(in.Target == 0, "target"); err != nil {
				return err
			}
		}
	case FmtRI32:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := zero(in.Ra == 0 && in.Rb == 0 && !in.UseImm && in.Cond == CondNone && in.Target == 0, "ra/rb/cond/target"); err != nil {
			return err
		}
	case FmtMem:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
		if !refFitsSigned(in.Imm, MemImmBits) {
			return encErr(in, "displacement %d out of %d-bit signed range", in.Imm, MemImmBits)
		}
		if err := zero(in.Rb == 0 && !in.UseImm && in.Cond == CondNone && in.Target == 0, "rb/cond/target"); err != nil {
			return err
		}
	case FmtDMA:
		if err := checkReg("rd", in.Rd); err != nil {
			return err
		}
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
		if in.UseImm {
			if !refFitsUnsigned(in.Imm, DMAImmBits) {
				return encErr(in, "DMA length %d out of %d-bit unsigned range", in.Imm, DMAImmBits)
			}
			if err := zero(in.Rb == 0, "rb"); err != nil {
				return err
			}
		} else {
			if err := checkReg("rb", in.Rb); err != nil {
				return err
			}
			if err := zero(in.Imm == 0, "imm"); err != nil {
				return err
			}
		}
		if err := zero(in.Cond == CondNone && in.Target == 0, "cond/target"); err != nil {
			return err
		}
	case FmtJcc:
		if err := checkReg("ra", in.Ra); err != nil {
			return err
		}
		if in.UseImm {
			if !refFitsSigned(in.Imm, JccImmBits) {
				return encErr(in, "imm %d out of %d-bit signed range", in.Imm, JccImmBits)
			}
			if err := zero(in.Rb == 0, "rb"); err != nil {
				return err
			}
		} else {
			if err := checkReg("rb", in.Rb); err != nil {
				return err
			}
			if err := zero(in.Imm == 0, "imm"); err != nil {
				return err
			}
		}
		if err := zero(in.Rd == 0 && in.Cond == CondNone, "rd/cond"); err != nil {
			return err
		}
	case FmtCtl:
		if in.Op == OpJREG {
			if err := checkReg("ra", in.Ra); err != nil {
				return err
			}
			if err := zero(in.Target == 0, "target"); err != nil {
				return err
			}
		} else if err := zero(in.Ra == 0, "ra"); err != nil {
			return err
		}
		if err := zero(in.Rd == 0 && in.Rb == 0 && !in.UseImm && in.Imm == 0 && in.Cond == CondNone, "rd/rb/imm/cond"); err != nil {
			return err
		}
	case FmtSync:
		if !refFitsUnsigned(in.Imm, lockBits) {
			return encErr(in, "lock index %d out of %d-bit range", in.Imm, lockBits)
		}
		if in.Op == OpRELEASE {
			if err := zero(in.Target == 0, "target"); err != nil {
				return err
			}
		}
		if err := zero(in.Rd == 0 && in.Ra == 0 && in.Rb == 0 && !in.UseImm && in.Cond == CondNone, "regs/cond"); err != nil {
			return err
		}
	case FmtNone:
		switch in.Op {
		case OpPERF, OpFAULT:
			if err := checkReg("rd", in.Rd); err != nil {
				return err
			}
			if !refFitsUnsigned(in.Imm, PerfImmBits) {
				return encErr(in, "selector %d out of %d-bit range", in.Imm, PerfImmBits)
			}
		default:
			if err := zero(in.Rd == 0 && in.Imm == 0, "rd/imm"); err != nil {
				return err
			}
		}
		if err := zero(in.Ra == 0 && in.Rb == 0 && !in.UseImm && in.Cond == CondNone && in.Target == 0, "ra/rb/cond/target"); err != nil {
			return err
		}
	}
	return nil
}

func refEncode(in Instruction) (Word, error) {
	var w Word
	if err := refValidate(in); err != nil {
		return w, err
	}
	var p refPacker
	p.put(uint64(in.Op), opBits)
	switch refFormat(in.Op) {
	case FmtRRR:
		p.put(uint64(in.Rd), regBits)
		p.put(uint64(in.Ra), regBits)
		p.put(refBoolBit(in.UseImm), 1)
		p.put(uint64(in.Cond), condBits)
		p.put(uint64(in.Target), targetBits)
		if in.UseImm {
			p.put(uint64(uint32(in.Imm)), RRRImmBits)
		} else {
			p.put(uint64(in.Rb), regBits)
		}
	case FmtRI32:
		p.put(uint64(in.Rd), regBits)
		p.put(uint64(uint32(in.Imm)), 32)
	case FmtMem:
		p.put(uint64(in.Rd), regBits)
		p.put(uint64(in.Ra), regBits)
		p.put(uint64(uint32(in.Imm)), MemImmBits)
	case FmtDMA:
		p.put(uint64(in.Rd), regBits)
		p.put(uint64(in.Ra), regBits)
		p.put(refBoolBit(in.UseImm), 1)
		if in.UseImm {
			p.put(uint64(uint32(in.Imm)), DMAImmBits)
		} else {
			p.put(uint64(in.Rb), regBits)
		}
	case FmtJcc:
		p.put(uint64(in.Ra), regBits)
		p.put(refBoolBit(in.UseImm), 1)
		p.put(uint64(in.Target), targetBits)
		if in.UseImm {
			p.put(uint64(uint32(in.Imm)), JccImmBits)
		} else {
			p.put(uint64(in.Rb), regBits)
		}
	case FmtCtl:
		if in.Op == OpJREG {
			p.put(uint64(in.Ra), regBits)
		} else {
			p.put(uint64(in.Target), targetBits)
		}
	case FmtSync:
		p.put(uint64(uint32(in.Imm)), lockBits)
		p.put(uint64(in.Target), targetBits)
	case FmtNone:
		p.put(uint64(in.Rd), regBits)
		p.put(uint64(uint32(in.Imm)), PerfImmBits)
	}
	for i := 0; i < WordBytes; i++ {
		w[i] = byte(p.v >> (8 * i))
	}
	return w, nil
}

func refDecode(w Word) (Instruction, error) {
	var u refUnpacker
	for i := 0; i < WordBytes; i++ {
		u.v |= uint64(w[i]) << (8 * i)
	}
	var in Instruction
	in.Op = Opcode(u.get(opBits))
	if !in.Op.Valid() {
		return in, fmt.Errorf("isa: decode: invalid opcode %d", uint8(in.Op))
	}
	switch refFormat(in.Op) {
	case FmtRRR:
		in.Rd = RegID(u.get(regBits))
		in.Ra = RegID(u.get(regBits))
		in.UseImm = u.get(1) == 1
		in.Cond = Cond(u.get(condBits))
		in.Target = uint16(u.get(targetBits))
		if in.UseImm {
			in.Imm = u.getSigned(RRRImmBits)
		} else {
			in.Rb = RegID(u.get(regBits))
		}
	case FmtRI32:
		in.Rd = RegID(u.get(regBits))
		in.Imm = int32(uint32(u.get(32)))
	case FmtMem:
		in.Rd = RegID(u.get(regBits))
		in.Ra = RegID(u.get(regBits))
		in.Imm = u.getSigned(MemImmBits)
	case FmtDMA:
		in.Rd = RegID(u.get(regBits))
		in.Ra = RegID(u.get(regBits))
		in.UseImm = u.get(1) == 1
		if in.UseImm {
			in.Imm = int32(u.get(DMAImmBits))
		} else {
			in.Rb = RegID(u.get(regBits))
		}
	case FmtJcc:
		in.Ra = RegID(u.get(regBits))
		in.UseImm = u.get(1) == 1
		in.Target = uint16(u.get(targetBits))
		if in.UseImm {
			in.Imm = u.getSigned(JccImmBits)
		} else {
			in.Rb = RegID(u.get(regBits))
		}
	case FmtCtl:
		if in.Op == OpJREG {
			in.Ra = RegID(u.get(regBits))
		} else {
			in.Target = uint16(u.get(targetBits))
		}
	case FmtSync:
		in.Imm = int32(u.get(lockBits))
		in.Target = uint16(u.get(targetBits))
	case FmtNone:
		in.Rd = RegID(u.get(regBits))
		in.Imm = int32(u.get(PerfImmBits))
	}
	if err := refValidate(in); err != nil {
		return in, fmt.Errorf("isa: decode produced non-canonical instruction: %w", err)
	}
	return in, nil
}

func refString(in Instruction) string {
	var b strings.Builder
	b.WriteString(refOpString(in.Op))
	arg := func(parts ...string) {
		if b.Len() == len(refOpString(in.Op)) {
			b.WriteByte(' ')
		} else {
			b.WriteString(", ")
		}
		for _, p := range parts {
			b.WriteString(p)
		}
	}
	switch refFormat(in.Op) {
	case FmtRRR:
		arg(in.Rd.String())
		arg(in.Ra.String())
		if in.Op != OpMOV {
			if in.UseImm {
				arg(fmt.Sprint(in.Imm))
			} else {
				arg(in.Rb.String())
			}
		}
		if in.Cond != CondNone {
			arg(in.Cond.String())
			arg(fmt.Sprint(in.Target))
		}
	case FmtRI32:
		arg(in.Rd.String())
		arg(fmt.Sprint(in.Imm))
	case FmtMem:
		arg(in.Rd.String())
		arg(in.Ra.String())
		arg(fmt.Sprint(in.Imm))
	case FmtDMA:
		arg(in.Rd.String())
		arg(in.Ra.String())
		if in.UseImm {
			arg(fmt.Sprint(in.Imm))
		} else {
			arg(in.Rb.String())
		}
	case FmtJcc:
		arg(in.Ra.String())
		if in.UseImm {
			arg(fmt.Sprint(in.Imm))
		} else {
			arg(in.Rb.String())
		}
		arg(fmt.Sprint(in.Target))
	case FmtCtl:
		if in.Op == OpJREG {
			arg(in.Ra.String())
		} else {
			arg(fmt.Sprint(in.Target))
		}
	case FmtSync:
		arg(fmt.Sprint(in.Imm))
		if in.Op == OpACQUIRE {
			arg(fmt.Sprint(in.Target))
		}
	case FmtNone:
		if in.Op == OpPERF || in.Op == OpFAULT {
			arg(in.Rd.String())
			arg(fmt.Sprint(in.Imm))
		}
	}
	return b.String()
}

// A reference model of the opcode table: the per-opcode switch chains it
// replaced (names carry a ref prefix).
// TestOpcodeTableMatchesReference and FuzzDecode hold the table-driven
// String, Format, Class, IsStore, MemAccess, SrcRegs and RFConflict to them.

var refOpNames = [NumOpcodes]string{
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

func refOpString(op Opcode) string {
	if int(op) < len(refOpNames) {
		return refOpNames[op]
	}
	return fmt.Sprintf("op?%d", uint8(op))
}

func refFormat(op Opcode) Format {
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

func refClass(in Instruction) Class {
	switch refFormat(in.Op) {
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

func refIsStore(in Instruction) bool {
	switch in.Op {
	case OpSW, OpSH, OpSB:
		return true
	}
	return false
}

func refMemAccess(in Instruction) (size int, signExtend bool) {
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

func refSrcRegs(in Instruction, dst []RegID) []RegID {
	add := func(r RegID) {
		if r.IsGPR() {
			dst = append(dst, r)
		}
	}
	switch refFormat(in.Op) {
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
		if refIsStore(in) {
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

func refRFConflict(in Instruction) bool {
	var buf [2]RegID
	srcs := refSrcRegs(in, buf[:0])
	return len(srcs) == 2 && srcs[0] != srcs[1] && srcs[0].Parity() == srcs[1].Parity()
}
