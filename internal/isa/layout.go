package isa

// Field names the Instruction field an operand slot holds.
type Field uint8

const (
	FieldRd Field = iota + 1
	FieldRa
	// FieldRb is the register-or-immediate operand: Rb, or Imm when UseImm
	// is set. It sits last in the word.
	FieldRb
	FieldImm
	FieldCond
	FieldTarget
	// fieldUseImm is the UseImm bit: the assembly text writes the FieldRb
	// operand where this bit sits, so no text operand holds it.
	fieldUseImm
)

// fieldNames name the fields in Validate's messages.
var fieldNames = [...]string{
	FieldRd: "rd", FieldRa: "ra", FieldRb: "rb", FieldImm: "imm",
	FieldCond: "cond", FieldTarget: "target", fieldUseImm: "UseImm",
}

// Operand is one slot of an instruction's 48-bit word: the field it holds
// and, for an immediate, its width, signedness and the name messages give it.
type Operand struct {
	Field Field
	Name  string // an immediate's name in error messages: "displacement", ...

	bits   uint   // width; FieldRb's register form is regBits wide
	signed bool   // an immediate is sign-extended from bits
	rng    string // how an out-of-range message for the immediate ends
	zero   bool   // reserved: encoded and decoded, must be zero, not in the text
}

func (o Operand) reserved() Operand {
	o.zero = true
	return o
}

// holds returns the field o holds in in's word and its width: FieldRb
// holds Imm when UseImm is set, and Rb in regBits otherwise.
func (o Operand) holds(in *Instruction) (Field, uint) {
	switch {
	case o.Field != FieldRb:
		return o.Field, o.bits
	case in.UseImm:
		return FieldImm, o.bits
	}
	return FieldRb, regBits
}

// fits reports whether v is in the range of immediate slot o.
func (o Operand) fits(v int32) bool {
	if o.signed {
		s := int64(v) >> ((o.bits - 1) & 63)
		return s == 0 || s == -1
	}
	return int64(v)>>(o.bits&63) == 0
}

var (
	rd       = Operand{Field: FieldRd, bits: regBits}
	ra       = Operand{Field: FieldRa, bits: regBits}
	useImm   = Operand{Field: fieldUseImm, bits: 1}
	cond     = Operand{Field: FieldCond, bits: condBits}
	target   = Operand{Field: FieldTarget, bits: targetBits}
	rrrImm   = Operand{Field: FieldRb, Name: "imm", bits: RRRImmBits, signed: true, rng: "signed range"}
	lock     = Operand{Field: FieldImm, Name: "lock index", bits: lockBits, rng: "range"}
	selector = Operand{Field: FieldImm, Name: "selector", bits: PerfImmBits, rng: "range"}
)

// rows[f] is format f's word after the 7-bit opcode: its slots in bit order.
// A row with a cond slot branches, and writes cond and target, only when
// Cond is not CondNone.
var rows = [...][]Operand{
	FmtRRR:  {rd, ra, useImm, cond, target, rrrImm},
	FmtRI32: {rd, {Field: FieldImm, Name: "imm", bits: 32, signed: true}},
	FmtMem:  {rd, ra, {Field: FieldImm, Name: "displacement", bits: MemImmBits, signed: true, rng: "signed range"}},
	FmtDMA:  {rd, ra, useImm, {Field: FieldRb, Name: "DMA length", bits: DMAImmBits, rng: "unsigned range"}},
	FmtJcc:  {ra, useImm, target, {Field: FieldRb, Name: "imm", bits: JccImmBits, signed: true, rng: "signed range"}},
	FmtCtl:  {target},
	FmtSync: {lock, target},
	FmtNone: {rd, selector},
}

// overrides are the opcodes whose slots differ from their format's row.
var overrides = map[Opcode][]Operand{
	OpMOV:     {rd, ra, useImm.reserved(), cond, target, rrrImm.reserved()},
	OpJREG:    {ra},
	OpRELEASE: {lock, target.reserved()},
	OpNOP:     {rd.reserved(), selector.reserved()},
	OpSTOP:    {rd.reserved(), selector.reserved()},
}

// layouts[op] is op's layout, worked out once so that no lookup allocates:
// its slots in bit order, its operands in text order, the fields they hold
// whatever the instruction says (1<<Field), and its immediate operand.
var layouts [NumOpcodes]struct {
	bits, text []Operand
	live       uint8
	imm        Operand
}

func init() {
	for op := Opcode(0); op < NumOpcodes; op++ {
		bits, ok := overrides[op]
		if !ok {
			bits = rows[op.Format()]
		}
		l := &layouts[op]
		l.bits = bits
		for _, o := range bits {
			switch {
			case o.zero || o.Field == FieldRb:
				continue
			case o.Field == fieldUseImm:
				o = bits[len(bits)-1]
			}
			l.text = append(l.text, o)
			if o.Field == FieldRb || o.Field == FieldImm {
				l.imm = o
			}
			if o.Field != FieldRb {
				l.live |= 1 << o.Field
			}
		}
	}
}

// live returns a bit 1<<f for each field f that a live slot of in's layout
// holds: FieldRb's register or immediate, as UseImm says, and a target after
// a cond only with a cond. in.Op must be valid.
func (in *Instruction) live() uint8 {
	l := &layouts[in.Op]
	live := l.live
	if l.imm.Field == FieldRb {
		f := FieldRb
		if in.UseImm {
			f = FieldImm
		}
		live |= 1<<f | 1<<fieldUseImm
	}
	if live&(1<<FieldCond) != 0 && in.Cond == CondNone {
		live &^= 1 << FieldTarget
	}
	return live
}

// Operands returns op's operands in the order its assembly text writes
// them; the slice is shared and must not be modified. The operands from a
// FieldCond one on are written only when Cond is not CondNone.
func (op Opcode) Operands() []Operand {
	if !op.Valid() {
		return nil
	}
	return layouts[op].text
}

// get returns field f's bits as the word holds them.
func (in *Instruction) get(f Field) uint64 {
	switch f {
	case FieldRd:
		return uint64(in.Rd)
	case FieldRa:
		return uint64(in.Ra)
	case FieldRb:
		return uint64(in.Rb)
	case FieldImm:
		return uint64(uint32(in.Imm))
	case FieldCond:
		return uint64(in.Cond)
	case FieldTarget:
		return uint64(in.Target)
	case fieldUseImm:
		if in.UseImm {
			return 1
		}
	}
	return 0
}

// set stores raw, read from a word, into field f.
func (in *Instruction) set(f Field, raw uint64) {
	switch f {
	case FieldRd:
		in.Rd = RegID(raw)
	case FieldRa:
		in.Ra = RegID(raw)
	case FieldRb:
		in.Rb = RegID(raw)
	case FieldImm:
		in.Imm = int32(raw)
	case FieldCond:
		in.Cond = Cond(raw)
	case FieldTarget:
		in.Target = uint16(raw)
	case fieldUseImm:
		in.UseImm = raw == 1
	}
}
