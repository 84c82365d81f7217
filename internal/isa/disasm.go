package isa

import (
	"fmt"
	"strconv"
	"strings"
)

// String renders the instruction in the textual assembly syntax accepted by
// internal/asm, with numeric branch targets.
func (in Instruction) String() string {
	b := []byte(in.Op.String())
	for i, o := range in.Op.Operands() {
		if o.Field == FieldCond && in.Cond == CondNone {
			break
		}
		if i == 0 {
			b = append(b, ' ')
		} else {
			b = append(b, ", "...)
		}
		switch f, _ := o.holds(&in); f {
		case FieldRd:
			b = append(b, in.Rd.String()...)
		case FieldRa:
			b = append(b, in.Ra.String()...)
		case FieldRb:
			b = append(b, in.Rb.String()...)
		case FieldImm:
			b = strconv.AppendInt(b, int64(in.Imm), 10)
		case FieldCond:
			b = append(b, in.Cond.String()...)
		case FieldTarget:
			b = strconv.AppendUint(b, uint64(in.Target), 10)
		}
	}
	return string(b)
}

// Disassemble renders a whole program, one instruction per line, prefixed
// with instruction indices.
func Disassemble(prog []Instruction) string {
	var b strings.Builder
	for i, in := range prog {
		fmt.Fprintf(&b, "%4d:  %s\n", i, in)
	}
	return b.String()
}

// OpcodeByName resolves an assembly mnemonic; ok is false for unknown names.
func OpcodeByName(name string) (Opcode, bool) {
	op, ok := opsByName[name]
	return op, ok
}

// CondByName resolves a condition mnemonic; ok is false for unknown names.
func CondByName(name string) (Cond, bool) {
	c, ok := condsByName[name]
	return c, ok
}

// RegByName resolves a register name (r0..r23, zero, id, nth, dpuid).
func RegByName(name string) (RegID, bool) {
	r, ok := regsByName[name]
	return r, ok
}

var (
	opsByName   = map[string]Opcode{}
	condsByName = map[string]Cond{}
	regsByName  = map[string]RegID{}
)

func init() {
	for op := Opcode(0); op < NumOpcodes; op++ {
		opsByName[op.String()] = op
	}
	for c := Cond(1); c < NumConds; c++ {
		condsByName[c.String()] = c
	}
	for r := RegID(0); r < NumRegs; r++ {
		regsByName[r.String()] = r
	}
}
