package core

import (
	"upim/internal/isa"
	"upim/internal/linker"
)

// uop flag bits.
const (
	uopFlagRFConflict = 1 << iota // reads two distinct same-parity GPRs
	uopFlagStore                  // memory write (vs load)
	uopFlagSignExt                // sign-extend the loaded value
	uopFlagUseImm                 // rb slot holds an immediate
)

// uop is one instruction's decode-once static metadata: what the issue and
// scheduling hot paths read of an isa.Instruction — its opcode-table row
// (class, access width, store), its GPR sources and their RF conflict — is
// copied here at program load, so the per-issue cost is a field read.
type uop struct {
	op     isa.Opcode
	class  isa.Class
	flags  uint8
	rd     isa.RegID
	ra     isa.RegID
	rb     isa.RegID
	cond   isa.Cond
	src    [3]isa.RegID // GPR sources (up to 3: a DMA reads rd, ra and rb)
	nSrc   uint8
	memSiz uint8 // access width in bytes for a load/store (0 otherwise)
	target uint16
	imm    int32
}

func (u *uop) rfConflict() bool { return u.flags&uopFlagRFConflict != 0 }
func (u *uop) isStore() bool    { return u.flags&uopFlagStore != 0 }
func (u *uop) signExt() bool    { return u.flags&uopFlagSignExt != 0 }
func (u *uop) useImm() bool     { return u.flags&uopFlagUseImm != 0 }

// decodeUop lowers one instruction into its µop.
func decodeUop(in isa.Instruction) uop {
	u := uop{
		op:     in.Op,
		class:  in.Class(),
		rd:     in.Rd,
		ra:     in.Ra,
		rb:     in.Rb,
		cond:   in.Cond,
		target: in.Target,
		imm:    in.Imm,
	}
	if in.UseImm {
		u.flags |= uopFlagUseImm
	}
	var buf [3]isa.RegID
	srcs := in.SrcRegs(buf[:0])
	u.nSrc = uint8(copy(u.src[:], srcs))
	if in.RFConflict() {
		u.flags |= uopFlagRFConflict
	}
	if size, signExt := in.MemAccess(); size != 0 {
		u.memSiz = uint8(size)
		if signExt {
			u.flags |= uopFlagSignExt
		}
		if in.IsStore() {
			u.flags |= uopFlagStore
		}
	}
	return u
}

// uopTableKey keys the decoded table in linker.Program's analysis cache.
type uopTableKey struct{}

// uopsFor returns the program's decode-once µop table, building it on first
// use and sharing it across every DPU loaded with the program (multi-DPU
// systems and concurrent sweep workers alike).
func uopsFor(prog *linker.Program) []uop {
	return prog.Analysis(uopTableKey{}, func(p *linker.Program) any {
		us := make([]uop, len(p.Instrs))
		for i, in := range p.Instrs {
			us[i] = decodeUop(in)
		}
		return us
	}).([]uop)
}
