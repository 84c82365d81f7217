package kbuild

import (
	"fmt"
	"strconv"

	"upim/internal/isa"
	"upim/internal/linker"
)

// Reg aliases the ISA register type for kernel code readability.
type Reg = isa.RegID

// Register name constants for kernel authors.
var (
	R = func(n int) Reg { return isa.GPR(n) }

	Zero  = isa.Zero
	ID    = isa.ID
	NTH   = isa.NTasklets
	DPUID = isa.DPUID
)

// Cond re-exports for branchful arithmetic.
const (
	CondZ    = isa.CondZ
	CondNZ   = isa.CondNZ
	CondNeg  = isa.CondNeg
	CondPos  = isa.CondPos
	CondGTZ  = isa.CondGTZ
	CondLEZ  = isa.CondLEZ
	CondTrue = isa.CondTrue
)

// Builder accumulates a kernel.
type Builder struct {
	name    string
	instrs  []isa.Instruction
	labels  map[string]uint16
	refs    []labelRef
	statics []linker.Symbol
	known   map[string]bool
	fixups  []linker.Fixup
	nextLck int
	gensym  int
}

type labelRef struct {
	index int
	label string
}

// New starts a kernel named name.
func New(name string) *Builder {
	return &Builder{
		name:   name,
		labels: map[string]uint16{},
		known:  map[string]bool{},
	}
}

func (b *Builder) emit(in isa.Instruction) {
	b.instrs = append(b.instrs, in)
}

func (b *Builder) panicf(format string, args ...any) {
	panic(fmt.Sprintf("kbuild[%s]: %s", b.name, fmt.Sprintf(format, args...)))
}

func (b *Builder) checkReg(r Reg) Reg {
	if !r.Valid() {
		b.panicf("invalid register %d", uint8(r))
	}
	return r
}

func (b *Builder) ref(label string) uint16 {
	b.refs = append(b.refs, labelRef{index: len(b.instrs), label: label})
	return 0
}

// Gensym returns a fresh unique label with the given prefix.
func (b *Builder) Gensym(prefix string) string {
	b.gensym++
	return "." + prefix + "_" + strconv.Itoa(b.gensym)
}

// Label binds a label to the next instruction.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.panicf("duplicate label %q", name)
	}
	if len(b.instrs) > isa.MaxTarget {
		b.panicf("program exceeds branch range at label %q", name)
	}
	b.labels[name] = uint16(len(b.instrs))
}

// Static declares an uninitialized static allocation and returns its name.
func (b *Builder) Static(name string, size, align int) string {
	if b.known[name] {
		b.panicf("duplicate static %q", name)
	}
	if size <= 0 {
		b.panicf("static %q has size %d", name, size)
	}
	b.known[name] = true
	b.statics = append(b.statics, linker.Symbol{
		Name: name, Size: uint32(size), Align: uint32(align),
	})
	return name
}

// StaticInit declares an initialized static allocation.
func (b *Builder) StaticInit(name string, data []byte, align int) string {
	b.Static(name, len(data), align)
	b.statics[len(b.statics)-1].Init = data
	return name
}

// AllocLock reserves one atomic-region mutex and returns its index.
func (b *Builder) AllocLock() int {
	id := b.nextLck
	b.nextLck++
	if id >= 256 {
		b.panicf("out of atomic locks")
	}
	return id
}

// --- instructions ------------------------------------------------------

func (b *Builder) alu(op isa.Opcode, rd, ra, rb Reg) {
	b.emit(isa.Instruction{Op: op, Rd: b.checkReg(rd), Ra: b.checkReg(ra), Rb: b.checkReg(rb)})
}

func (b *Builder) alui(op isa.Opcode, rd, ra Reg, imm int32) {
	if imm < -(1<<(isa.RRRImmBits-1)) || imm >= 1<<(isa.RRRImmBits-1) {
		b.panicf("%s immediate %d out of range; movi it into a register", op, imm)
	}
	b.emit(isa.Instruction{Op: op, Rd: b.checkReg(rd), Ra: b.checkReg(ra), UseImm: true, Imm: imm})
}

// Add emits rd = ra + rb; the *i variants take an immediate.
func (b *Builder) Add(rd, ra, rb Reg)         { b.alu(isa.OpADD, rd, ra, rb) }
func (b *Builder) Addi(rd, ra Reg, imm int32) { b.alui(isa.OpADD, rd, ra, imm) }
func (b *Builder) Sub(rd, ra, rb Reg)         { b.alu(isa.OpSUB, rd, ra, rb) }
func (b *Builder) Subi(rd, ra Reg, imm int32) { b.alui(isa.OpSUB, rd, ra, imm) }
func (b *Builder) And(rd, ra, rb Reg)         { b.alu(isa.OpAND, rd, ra, rb) }
func (b *Builder) Andi(rd, ra Reg, imm int32) { b.alui(isa.OpAND, rd, ra, imm) }
func (b *Builder) Or(rd, ra, rb Reg)          { b.alu(isa.OpOR, rd, ra, rb) }
func (b *Builder) Xor(rd, ra, rb Reg)         { b.alu(isa.OpXOR, rd, ra, rb) }
func (b *Builder) Lsl(rd, ra, rb Reg)         { b.alu(isa.OpLSL, rd, ra, rb) }
func (b *Builder) Lsli(rd, ra Reg, imm int32) { b.alui(isa.OpLSL, rd, ra, imm) }
func (b *Builder) Lsr(rd, ra, rb Reg)         { b.alu(isa.OpLSR, rd, ra, rb) }
func (b *Builder) Lsri(rd, ra Reg, imm int32) { b.alui(isa.OpLSR, rd, ra, imm) }
func (b *Builder) Asr(rd, ra, rb Reg)         { b.alu(isa.OpASR, rd, ra, rb) }
func (b *Builder) Asri(rd, ra Reg, imm int32) { b.alui(isa.OpASR, rd, ra, imm) }
func (b *Builder) Mul(rd, ra, rb Reg)         { b.alu(isa.OpMUL, rd, ra, rb) }
func (b *Builder) Mulh(rd, ra, rb Reg)        { b.alu(isa.OpMULH, rd, ra, rb) }
func (b *Builder) Muli(rd, ra Reg, imm int32) { b.alui(isa.OpMUL, rd, ra, imm) }
func (b *Builder) Div(rd, ra, rb Reg)         { b.alu(isa.OpDIV, rd, ra, rb) }
func (b *Builder) Divi(rd, ra Reg, imm int32) { b.alui(isa.OpDIV, rd, ra, imm) }
func (b *Builder) Rem(rd, ra, rb Reg)         { b.alu(isa.OpREM, rd, ra, rb) }
func (b *Builder) Remi(rd, ra Reg, imm int32) { b.alui(isa.OpREM, rd, ra, imm) }

// Mov emits rd = ra.
func (b *Builder) Mov(rd, ra Reg) {
	b.emit(isa.Instruction{Op: isa.OpMOV, Rd: b.checkReg(rd), Ra: b.checkReg(ra)})
}

// Movi emits rd = imm (full 32-bit).
func (b *Builder) Movi(rd Reg, imm int32) {
	b.emit(isa.Instruction{Op: isa.OpMOVI, Rd: b.checkReg(rd), Imm: imm})
}

// MoviSym emits rd = &symbol + addend, resolved at link time.
func (b *Builder) MoviSym(rd Reg, symbol string, addend int32) {
	if !b.known[symbol] {
		b.panicf("movi of unknown symbol %q", symbol)
	}
	b.fixups = append(b.fixups, linker.Fixup{Index: len(b.instrs), Symbol: symbol, Addend: addend})
	b.emit(isa.Instruction{Op: isa.OpMOVI, Rd: b.checkReg(rd)})
}

// AddBr emits a merged arithmetic+branch: rd = ra+rb, branch on cond.
func (b *Builder) AddBr(rd, ra, rb Reg, cond isa.Cond, label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpADD, Rd: b.checkReg(rd), Ra: b.checkReg(ra), Rb: b.checkReg(rb), Cond: cond, Target: t})
}

// AddiBr emits rd = ra+imm with a branch on cond (the canonical
// decrement-and-loop form).
func (b *Builder) AddiBr(rd, ra Reg, imm int32, cond isa.Cond, label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpADD, Rd: b.checkReg(rd), Ra: b.checkReg(ra), UseImm: true, Imm: imm, Cond: cond, Target: t})
}

// SubBr / SubiBr are the subtractive twins.
func (b *Builder) SubBr(rd, ra, rb Reg, cond isa.Cond, label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpSUB, Rd: b.checkReg(rd), Ra: b.checkReg(ra), Rb: b.checkReg(rb), Cond: cond, Target: t})
}

func (b *Builder) SubiBr(rd, ra Reg, imm int32, cond isa.Cond, label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpSUB, Rd: b.checkReg(rd), Ra: b.checkReg(ra), UseImm: true, Imm: imm, Cond: cond, Target: t})
}

// AndiBr emits rd = ra&imm with a branch on cond (lane masking + branch).
func (b *Builder) AndiBr(rd, ra Reg, imm int32, cond isa.Cond, label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpAND, Rd: b.checkReg(rd), Ra: b.checkReg(ra), UseImm: true, Imm: imm, Cond: cond, Target: t})
}

func (b *Builder) mem(op isa.Opcode, rd, base Reg, off int32) {
	if off < -(1<<(isa.MemImmBits-1)) || off >= 1<<(isa.MemImmBits-1) {
		b.panicf("%s displacement %d out of range", op, off)
	}
	b.emit(isa.Instruction{Op: op, Rd: b.checkReg(rd), Ra: b.checkReg(base), Imm: off})
}

// Lw loads a word: rd = mem32[base+off]. Narrow variants follow.
func (b *Builder) Lw(rd, base Reg, off int32)  { b.mem(isa.OpLW, rd, base, off) }
func (b *Builder) Lh(rd, base Reg, off int32)  { b.mem(isa.OpLH, rd, base, off) }
func (b *Builder) Lhu(rd, base Reg, off int32) { b.mem(isa.OpLHU, rd, base, off) }
func (b *Builder) Lb(rd, base Reg, off int32)  { b.mem(isa.OpLB, rd, base, off) }
func (b *Builder) Lbu(rd, base Reg, off int32) { b.mem(isa.OpLBU, rd, base, off) }

// Sw stores a word: mem32[base+off] = val. Narrow variants follow.
func (b *Builder) Sw(val, base Reg, off int32) { b.mem(isa.OpSW, val, base, off) }
func (b *Builder) Sh(val, base Reg, off int32) { b.mem(isa.OpSH, val, base, off) }
func (b *Builder) Sb(val, base Reg, off int32) { b.mem(isa.OpSB, val, base, off) }

// Ldma stages MRAM->WRAM: wram/mram hold byte addresses, lenReg the length.
// Sdma writes WRAM->MRAM; the *i variants take a constant length.
func (b *Builder) Ldma(wram, mram, lenReg Reg)        { b.alu(isa.OpLDMA, wram, mram, lenReg) }
func (b *Builder) Sdma(wram, mram, lenReg Reg)        { b.alu(isa.OpSDMA, wram, mram, lenReg) }
func (b *Builder) Ldmai(wram, mram Reg, length int32) { b.dmai(isa.OpLDMA, wram, mram, length) }
func (b *Builder) Sdmai(wram, mram Reg, length int32) { b.dmai(isa.OpSDMA, wram, mram, length) }

func (b *Builder) dmai(op isa.Opcode, wram, mram Reg, length int32) {
	if length <= 0 || length > 2048 || length%8 != 0 {
		b.panicf("DMA length %d invalid", length)
	}
	b.emit(isa.Instruction{Op: op, Rd: b.checkReg(wram), Ra: b.checkReg(mram), UseImm: true, Imm: length})
}

// Br emits a register compare-and-branch of the given Jcc opcode.
func (b *Builder) Br(op isa.Opcode, ra, rb Reg, label string) {
	if op.Format() != isa.FmtJcc {
		b.panicf("%s is not a compare-and-branch", op)
	}
	t := b.ref(label)
	b.emit(isa.Instruction{Op: op, Ra: b.checkReg(ra), Rb: b.checkReg(rb), Target: t})
}

// Bri emits an immediate compare-and-branch.
func (b *Builder) Bri(op isa.Opcode, ra Reg, imm int32, label string) {
	if op.Format() != isa.FmtJcc {
		b.panicf("%s is not a compare-and-branch", op)
	}
	if imm < -(1<<(isa.JccImmBits-1)) || imm >= 1<<(isa.JccImmBits-1) {
		b.panicf("%s immediate %d out of range", op, imm)
	}
	t := b.ref(label)
	b.emit(isa.Instruction{Op: op, Ra: b.checkReg(ra), UseImm: true, Imm: imm, Target: t})
}

// Convenience wrappers for the common compare-and-branch forms.
func (b *Builder) Jeq(ra, rb Reg, l string)       { b.Br(isa.OpJEQ, ra, rb, l) }
func (b *Builder) Jeqi(ra Reg, i int32, l string) { b.Bri(isa.OpJEQ, ra, i, l) }
func (b *Builder) Jne(ra, rb Reg, l string)       { b.Br(isa.OpJNE, ra, rb, l) }
func (b *Builder) Jnei(ra Reg, i int32, l string) { b.Bri(isa.OpJNE, ra, i, l) }
func (b *Builder) Jlt(ra, rb Reg, l string)       { b.Br(isa.OpJLT, ra, rb, l) }
func (b *Builder) Jlti(ra Reg, i int32, l string) { b.Bri(isa.OpJLT, ra, i, l) }
func (b *Builder) Jle(ra, rb Reg, l string)       { b.Br(isa.OpJLE, ra, rb, l) }
func (b *Builder) Jgt(ra, rb Reg, l string)       { b.Br(isa.OpJGT, ra, rb, l) }
func (b *Builder) Jge(ra, rb Reg, l string)       { b.Br(isa.OpJGE, ra, rb, l) }
func (b *Builder) Jgei(ra Reg, i int32, l string) { b.Bri(isa.OpJGE, ra, i, l) }
func (b *Builder) Jltu(ra, rb Reg, l string)      { b.Br(isa.OpJLTU, ra, rb, l) }
func (b *Builder) Jgeu(ra, rb Reg, l string)      { b.Br(isa.OpJGEU, ra, rb, l) }

// Jump, Call, Ret, Jreg are the unconditional control forms.
func (b *Builder) Jump(label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpJUMP, Target: t})
}

func (b *Builder) Call(label string) {
	t := b.ref(label)
	b.emit(isa.Instruction{Op: isa.OpCALL, Target: t})
}

func (b *Builder) Ret()        { b.emit(isa.Instruction{Op: isa.OpJREG, Ra: isa.RegID(23)}) }
func (b *Builder) Jreg(ra Reg) { b.emit(isa.Instruction{Op: isa.OpJREG, Ra: b.checkReg(ra)}) }

// Stop terminates the tasklet; Nop burns an issue slot.
func (b *Builder) Stop() { b.emit(isa.Instruction{Op: isa.OpSTOP}) }
func (b *Builder) Nop()  { b.emit(isa.Instruction{Op: isa.OpNOP}) }

// Perf reads a performance counter (0 = cycle, 1 = instret).
func (b *Builder) Perf(rd Reg, sel int32) {
	b.emit(isa.Instruction{Op: isa.OpPERF, Rd: b.checkReg(rd), Imm: sel})
}

// Fault raises a software fault carrying the selector and rd's value
// (failure-injection hook for tests).
func (b *Builder) Fault(rd Reg, sel int32) {
	b.emit(isa.Instruction{Op: isa.OpFAULT, Rd: b.checkReg(rd), Imm: sel})
}

// AcquireSpin emits the canonical single-instruction spin lock: the acquire
// branches to itself until the mutex is granted. Contention therefore shows
// up as executed synchronization instructions, exactly as the paper observes
// for HST-L and TRNS.
func (b *Builder) AcquireSpin(lock int) {
	l := b.Gensym("spin")
	b.Label(l)
	t := b.ref(l)
	b.emit(isa.Instruction{Op: isa.OpACQUIRE, Imm: int32(lock), Target: t})
}

// Release frees a mutex.
func (b *Builder) Release(lock int) {
	b.emit(isa.Instruction{Op: isa.OpRELEASE, Imm: int32(lock)})
}

// LoadArg reads host argument word i into rd.
func (b *Builder) LoadArg(rd Reg, i int) {
	if i < 0 || i >= linker.ArgWords {
		b.panicf("argument index %d out of range", i)
	}
	b.Lw(rd, Zero, int32(4*i))
}

// --- macros ------------------------------------------------------------

// Barrier is an SDK-style generation barrier: a mutex-protected arrival
// counter plus a generation word that waiters spin on.
type Barrier struct {
	lock    int
	counter string
	gen     string
}

// NewBarrier allocates the barrier's lock and WRAM words.
func (b *Builder) NewBarrier(name string) *Barrier {
	bar := &Barrier{
		lock:    b.AllocLock(),
		counter: b.Static(name+"_cnt", 8, 8),
		gen:     b.Static(name+"_gen", 8, 8),
	}
	return bar
}

// Wait emits the barrier-wait sequence. t1..t3 are scratch registers; all
// tasklets must call Wait the same number of times.
func (b *Builder) Wait(bar *Barrier, t1, t2, t3 Reg) {
	done := b.Gensym("bar_done")
	spin := b.Gensym("bar_spin")
	last := b.Gensym("bar_last")

	b.MoviSym(t1, bar.gen, 0)
	b.Lw(t3, t1, 0) // my generation
	b.AcquireSpin(bar.lock)
	b.MoviSym(t1, bar.counter, 0)
	b.Lw(t2, t1, 0)
	b.Addi(t2, t2, 1)
	b.Jeq(t2, NTH, last)
	// Not last: publish count, release, spin on the generation word.
	b.Sw(t2, t1, 0)
	b.Release(bar.lock)
	b.MoviSym(t1, bar.gen, 0)
	b.Label(spin)
	b.Lw(t2, t1, 0)
	b.Jeq(t2, t3, spin)
	b.Jump(done)
	// Last arrival: reset the counter and bump the generation.
	b.Label(last)
	b.Movi(t2, 0)
	b.Sw(t2, t1, 0)
	b.MoviSym(t1, bar.gen, 0)
	b.Addi(t3, t3, 1)
	b.Sw(t3, t1, 0)
	b.Release(bar.lock)
	b.Label(done)
}

// TaskletRange computes this tasklet's [start, end) slice of n items using
// ceil(n/NTH) blocking (the PrIM partitioning idiom). start/end/tmp must be
// distinct registers; n is left untouched.
func (b *Builder) TaskletRange(start, end, n, tmp Reg) {
	b.taskletRange(start, end, n, tmp, 0)
}

// TaskletRangeAligned is TaskletRange with the chunk size rounded up to
// alignItems (a power of two), so per-tasklet slices start on DMA-friendly
// boundaries.
func (b *Builder) TaskletRangeAligned(start, end, n, tmp Reg, alignItems int32) {
	if alignItems <= 0 || alignItems&(alignItems-1) != 0 {
		b.panicf("alignment %d is not a power of two", alignItems)
	}
	b.taskletRange(start, end, n, tmp, alignItems)
}

// taskletRange is the one partitioning body; roundUp is 0 for the unaligned
// form, which skips the round-up pair.
func (b *Builder) taskletRange(start, end, n, tmp Reg, roundUp int32) {
	b.distinct("TaskletRange", start, end, tmp)
	clampTo := func(r Reg) {
		ok := b.Gensym("range_clamp")
		b.Jle(r, n, ok)
		b.Mov(r, n)
		b.Label(ok)
	}
	b.Add(tmp, n, NTH)
	b.Subi(tmp, tmp, 1)
	b.Div(tmp, tmp, NTH) // chunk = ceil(n / NTH)
	if roundUp > 0 {
		b.Addi(tmp, tmp, roundUp-1)
		b.Andi(tmp, tmp, -roundUp) // chunk = roundUp(chunk, align)
	}
	b.Mul(start, tmp, ID)
	b.Add(end, start, tmp)
	clampTo(end)
	clampTo(start) // a tasklet entirely past the end gets an empty range
}

// Build resolves labels and returns the unlinked object.
func (b *Builder) Build() (*linker.Object, error) {
	for _, ref := range b.refs {
		t, ok := b.labels[ref.label]
		if !ok {
			return nil, fmt.Errorf("kbuild[%s]: undefined label %q", b.name, ref.label)
		}
		b.instrs[ref.index].Target = t
	}
	obj := &linker.Object{
		Name:    b.name,
		Instrs:  b.instrs,
		Statics: b.statics,
		Fixups:  b.fixups,
	}
	for i, in := range obj.Instrs {
		// movi fixup targets carry a zero imm until link; skip their check.
		if err := in.Validate(); err != nil && !b.isFixupTarget(i) {
			return nil, fmt.Errorf("kbuild[%s]: instruction %d: %w", b.name, i, err)
		}
	}
	return obj, nil
}

func (b *Builder) isFixupTarget(i int) bool {
	for _, f := range b.fixups {
		if f.Index == i {
			return true
		}
	}
	return false
}

// MustBuild is Build for init-time kernel construction.
func (b *Builder) MustBuild() *linker.Object {
	obj, err := b.Build()
	if err != nil {
		panic(err)
	}
	return obj
}
