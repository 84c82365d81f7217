package isa

import (
	"fmt"
	"math/bits"
)

// Word is one encoded instruction: 48 bits, the IRAM fetch granularity.
type Word [WordBytes]byte

// WordBytes is the size of an encoded instruction in bytes.
const WordBytes = 6

// Field widths of the 48-bit encoding. Every word starts with a 7-bit
// opcode; rows in layout.go places the fields after it.
const (
	opBits     = 7
	regBits    = 5
	condBits   = 3
	targetBits = 13
	lockBits   = 8

	// MaxTarget is the largest encodable branch target (instruction index).
	MaxTarget = 1<<targetBits - 1

	// RRRImmBits bounds immediates of register-form ALU instructions.
	RRRImmBits = 14
	// MemImmBits bounds load/store displacement immediates.
	MemImmBits = 17
	// DMAImmBits bounds immediate DMA lengths.
	DMAImmBits = 12
	// JccImmBits bounds compare-and-branch immediates.
	JccImmBits = 22
	// PerfImmBits bounds PERF/FAULT selector immediates.
	PerfImmBits = 8
)

// EncodeErr describes an instruction that cannot be represented in the
// 48-bit encoding (field overflow or malformed operands).
type EncodeErr struct {
	Inst   Instruction
	Reason string
}

func (e *EncodeErr) Error() string {
	return fmt.Sprintf("isa: cannot encode %s: %s", e.Inst, e.Reason)
}

func encErr(in Instruction, format string, args ...any) error {
	return &EncodeErr{Inst: in, Reason: fmt.Sprintf(format, args...)}
}

// Validate checks that the instruction is canonical and encodable: all field
// values in range, and fields no live slot of the opcode's layout holds left
// zero.
func (in Instruction) Validate() error {
	if !in.Op.Valid() {
		return encErr(in, "invalid opcode %d", uint8(in.Op))
	}
	if !in.Cond.Valid() {
		return encErr(in, "invalid cond %d", uint8(in.Cond))
	}
	if in.Target > MaxTarget {
		return encErr(in, "target %d exceeds %d", in.Target, MaxTarget)
	}
	live := in.live()
	if live&(1<<FieldRd) != 0 && !in.Rd.Valid() {
		return encErr(in, "invalid rd register %d", uint8(in.Rd))
	}
	if live&(1<<FieldRa) != 0 && !in.Ra.Valid() {
		return encErr(in, "invalid ra register %d", uint8(in.Ra))
	}
	if live&(1<<FieldRb) != 0 && !in.Rb.Valid() {
		return encErr(in, "invalid rb register %d", uint8(in.Rb))
	}
	if o := &layouts[in.Op].imm; live&(1<<FieldImm) != 0 && !o.fits(in.Imm) {
		return encErr(in, "%s %d out of %d-bit %s", o.Name, in.Imm, o.bits, o.rng)
	}
	set := bit(in.Rd != 0)<<FieldRd | bit(in.Ra != 0)<<FieldRa | bit(in.Rb != 0)<<FieldRb |
		bit(in.Imm != 0)<<FieldImm | bit(in.Cond != 0)<<FieldCond |
		bit(in.Target != 0)<<FieldTarget | bit(in.UseImm)<<fieldUseImm
	if extra := set &^ live; extra != 0 {
		return encErr(in, "non-canonical: %s must be zero for %s", fieldNames[bits.TrailingZeros8(extra)], in.Op)
	}
	return nil
}

func bit(b bool) uint8 {
	if b {
		return 1
	}
	return 0
}

// Encode packs the instruction into its 48-bit word: the opcode, then the
// layout's slots in bit order. The instruction must be canonical (see
// Validate).
func (in Instruction) Encode() (Word, error) {
	var w Word
	if err := in.Validate(); err != nil {
		return w, err
	}
	v, pos := uint64(in.Op), uint(opBits)
	for _, o := range layouts[in.Op].bits {
		f, n := o.holds(&in)
		v |= (in.get(f) & (1<<n - 1)) << pos
		pos += n
	}
	for i := range w {
		w[i] = byte(v >> (8 * i))
	}
	return w, nil
}

// Decode unpacks a 48-bit word into its canonical Instruction.
func Decode(w Word) (Instruction, error) {
	var v uint64
	for i, b := range w {
		v |= uint64(b) << (8 * i)
	}
	in := Instruction{Op: Opcode(v & (1<<opBits - 1))}
	if !in.Op.Valid() {
		return in, fmt.Errorf("isa: decode: invalid opcode %d", uint8(in.Op))
	}
	pos := uint(opBits)
	for _, o := range layouts[in.Op].bits {
		f, n := o.holds(&in)
		raw := v >> pos & (1<<n - 1)
		if f == FieldImm && o.signed {
			raw = uint64(int64(raw<<(64-n)) >> (64 - n))
		}
		in.set(f, raw)
		pos += n
	}
	if err := in.Validate(); err != nil {
		return in, fmt.Errorf("isa: decode produced non-canonical instruction: %w", err)
	}
	return in, nil
}

// EncodeStream encodes a program into a flat byte image suitable for loading
// into IRAM.
func EncodeStream(prog []Instruction) ([]byte, error) {
	out := make([]byte, 0, len(prog)*WordBytes)
	for i, in := range prog {
		w, err := in.Encode()
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", i, err)
		}
		out = append(out, w[:]...)
	}
	return out, nil
}

// DecodeStream decodes a flat IRAM image back into instructions.
func DecodeStream(img []byte) ([]Instruction, error) {
	if len(img)%WordBytes != 0 {
		return nil, fmt.Errorf("isa: image size %d not a multiple of %d", len(img), WordBytes)
	}
	prog := make([]Instruction, 0, len(img)/WordBytes)
	for off := 0; off < len(img); off += WordBytes {
		var w Word
		copy(w[:], img[off:off+WordBytes])
		in, err := Decode(w)
		if err != nil {
			return nil, fmt.Errorf("instruction %d: %w", off/WordBytes, err)
		}
		prog = append(prog, in)
	}
	return prog, nil
}
