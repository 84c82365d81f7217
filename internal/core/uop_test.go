package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"upim/internal/isa"
	"upim/internal/kbuild"
	"upim/internal/linker"

	"upim/internal/config"
)

// The µop decoder the opcode table replaced, kept as the reference
// decodeUop is held to (names carry a ref prefix): kindOf's dispatch kind
// from the opcode's format, and the forwarding-latency selector from the
// class.

type refUopKind uint8

const (
	refUopALU     refUopKind = iota // FmtRRR arithmetic/logic (optional cond+target)
	refUopMOV                       // register move (optional cond+target)
	refUopMOVI                      // 32-bit immediate load
	refUopMem                       // WRAM/flat-space load/store
	refUopDMA                       // MRAM<->WRAM DMA
	refUopJcc                       // compare-and-branch
	refUopJUMP                      //
	refUopCALL                      //
	refUopJREG                      //
	refUopACQUIRE                   //
	refUopRELEASE                   //
	refUopSTOP                      //
	refUopPERF                      //
	refUopFAULT                     //
	refUopNOP                       //
)

const (
	refLatALU = iota
	refLatMulDiv
	refLatLoad
)

type refUop struct {
	op     isa.Opcode
	kind   refUopKind
	class  isa.Class
	flags  uint8
	rd     isa.RegID
	ra     isa.RegID
	rb     isa.RegID
	cond   isa.Cond
	src    [3]isa.RegID
	nSrc   uint8
	memSiz uint8
	latSel uint8
	target uint16
	imm    int32
}

func refKindOf(op isa.Opcode) refUopKind {
	switch op.Format() {
	case isa.FmtRRR:
		if op == isa.OpMOV {
			return refUopMOV
		}
		return refUopALU
	case isa.FmtRI32:
		return refUopMOVI
	case isa.FmtMem:
		return refUopMem
	case isa.FmtDMA:
		return refUopDMA
	case isa.FmtJcc:
		return refUopJcc
	case isa.FmtCtl:
		switch op {
		case isa.OpJUMP:
			return refUopJUMP
		case isa.OpCALL:
			return refUopCALL
		default:
			return refUopJREG
		}
	case isa.FmtSync:
		if op == isa.OpACQUIRE {
			return refUopACQUIRE
		}
		return refUopRELEASE
	default:
		switch op {
		case isa.OpSTOP:
			return refUopSTOP
		case isa.OpPERF:
			return refUopPERF
		case isa.OpFAULT:
			return refUopFAULT
		default:
			return refUopNOP
		}
	}
}

func refDecodeUop(in isa.Instruction) refUop {
	u := refUop{
		op:     in.Op,
		kind:   refKindOf(in.Op),
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
	switch u.class {
	case isa.ClassMulDiv:
		u.latSel = refLatMulDiv
	case isa.ClassLoadStore:
		u.latSel = refLatLoad
	default:
		u.latSel = refLatALU
	}
	return u
}

// uopDiff reports how µop u parts from the reference ref, or "" when they
// agree field for field. The reference's kind has no counterpart: execute
// switches on the opcode, which op pins. Its latency selector is compared as
// the forwarding latency it picks (lat reads u's, refLat holds distinct
// ones), and the sources as a multiset (readyAt takes their max and the RF
// rule is symmetric); reordered says whether their order differs.
func uopDiff(u *uop, ref refUop, lat func(*uop) uint64, refLat [3]uint64) (diff string, reordered bool) {
	switch {
	case u.op != ref.op:
		return fmt.Sprintf("op %v, reference %v", u.op, ref.op), false
	case u.class != ref.class:
		return fmt.Sprintf("class %v, reference %v", u.class, ref.class), false
	case u.flags != ref.flags:
		return fmt.Sprintf("flags %b, reference %b", u.flags, ref.flags), false
	case u.rd != ref.rd || u.ra != ref.ra || u.rb != ref.rb || u.cond != ref.cond:
		return fmt.Sprintf("rd/ra/rb/cond %v %v %v %v, reference %v %v %v %v", u.rd, u.ra, u.rb, u.cond, ref.rd, ref.ra, ref.rb, ref.cond), false
	case u.memSiz != ref.memSiz:
		return fmt.Sprintf("memSiz %d, reference %d", u.memSiz, ref.memSiz), false
	case lat(u) != refLat[ref.latSel]:
		return fmt.Sprintf("forwarding latency %d, reference %d", lat(u), refLat[ref.latSel]), false
	case u.target != ref.target || u.imm != ref.imm:
		return fmt.Sprintf("target/imm %d %d, reference %d %d", u.target, u.imm, ref.target, ref.imm), false
	case u.nSrc != ref.nSrc:
		return fmt.Sprintf("nSrc %d, reference %d", u.nSrc, ref.nSrc), false
	}
	src, rsrc := u.src[:u.nSrc], ref.src[:ref.nSrc]
	if slices.Equal(src, rsrc) && u.src == ref.src {
		return "", false
	}
	sorted, rsorted := slices.Clone(src), slices.Clone(rsrc)
	slices.Sort(sorted)
	slices.Sort(rsorted)
	if !slices.Equal(sorted, rsorted) || slices.ContainsFunc(u.src[u.nSrc:], func(r isa.RegID) bool { return r != 0 }) {
		return fmt.Sprintf("src %v, reference %v", u.src, ref.src), false
	}
	return "", true
}

// uopRegs are the registers TestUopMatchesReference puts in every register
// field: two of each parity, equal and distinct, and the four special
// registers.
var uopRegs = []isa.RegID{0, 1, 2, 3, isa.Zero, isa.ID, isa.NTasklets, isa.DPUID}

// TestUopMatchesReference holds decodeUop to the kind-based decoder
// (refDecodeUop) field for field: every opcode x cond x UseImm x (rd, ra,
// rb) over uopRegs, then a million random instructions over all fields. The
// forwarding latency is read from a DPU whose three latencies differ, so a
// µop on the wrong one shows. Sources may differ in order only; the count of
// reordered µops is logged.
func TestUopMatchesReference(t *testing.T) {
	cfg := config.Default()
	cfg.Forwarding = true
	cfg.FwdLatALU, cfg.FwdLatMulDiv, cfg.FwdLatLoad = 3, 5, 7
	prog, err := linker.Link(counterKernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := New(0, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	refLat := [3]uint64{refLatALU: 3, refLatMulDiv: 5, refLatLoad: 7}
	lat := func(u *uop) uint64 { return d.fwdLat[u.class] }
	var n, reordered int
	check := func(in isa.Instruction) {
		n++
		u := decodeUop(in)
		diff, re := uopDiff(&u, refDecodeUop(in), lat, refLat)
		if diff != "" {
			t.Fatalf("%+v: %s", in, diff)
		}
		if re {
			reordered++
		}
	}
	for op := isa.Opcode(0); op < isa.NumOpcodes; op++ {
		for c := isa.Cond(0); c < isa.NumConds; c++ {
			for _, imm := range []bool{false, true} {
				for _, rd := range uopRegs {
					for _, ra := range uopRegs {
						for _, rb := range uopRegs {
							check(isa.Instruction{Op: op, Rd: rd, Ra: ra, Rb: rb, UseImm: imm, Cond: c})
						}
					}
				}
			}
		}
	}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(isa.Instruction{
			Op:     isa.Opcode(r.Intn(isa.NumOpcodes)),
			Rd:     isa.RegID(r.Intn(32)),
			Ra:     isa.RegID(r.Intn(32)),
			Rb:     isa.RegID(r.Intn(32)),
			Imm:    int32(r.Uint32()),
			UseImm: r.Intn(2) == 0,
			Cond:   isa.Cond(r.Intn(isa.NumConds + 1)),
			Target: uint16(r.Uint32()),
		})
	}
	t.Logf("%d instructions, %d µops with sources in another order", n, reordered)
}

// TestUopTableSharedAcrossDPUs checks the decode-once property: two DPUs
// loaded with the same linked program share one µop table through the
// linker.Program analysis cache.
func TestUopTableSharedAcrossDPUs(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 2
	prog, err := linker.Link(counterKernel(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	d1, err := New(0, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := New(1, prog, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(d1.uops) == 0 || &d1.uops[0] != &d2.uops[0] {
		t.Fatal("DPUs of one program must share a single decoded µop table")
	}
	if len(d1.uops) != len(prog.Instrs) {
		t.Fatalf("µop table has %d entries for %d instructions", len(d1.uops), len(prog.Instrs))
	}
}

// TestUopsForLinkedProgram checks that a kernel built through the real
// toolchain decodes without gaps.
func TestUopsForLinkedProgram(t *testing.T) {
	b := kbuild.New("probe")
	b.Movi(kbuild.R(0), 1)
	b.Stop()
	cfg := config.Default()
	prog, err := linker.Link(b.MustBuild(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, u := range uopsFor(prog) {
		if u.op != prog.Instrs[i].Op {
			t.Fatalf("µop %d decodes op %v, want %v", i, u.op, prog.Instrs[i].Op)
		}
	}
}
