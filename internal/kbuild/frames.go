package kbuild

// MaxTasklets is the WRAM-footprint limit the PrIM kernels are laid out
// for: every per-tasklet static holds this many slots, and a run with more
// tasklets would overrun them (prim.ErrTooManyTasklets).
const MaxTasklets = 16

// distinct panics when two of a frame's registers alias: a frame's scratch
// registers are live at the same time, so an alias would silently compute
// garbage.
func (b *Builder) distinct(frame string, regs ...Reg) {
	for i, r := range regs {
		for _, q := range regs[:i] {
			if r == q {
				b.panicf("%s: register %d used twice", frame, uint8(r))
			}
		}
	}
}

// LoadArgs reads consecutive host argument words first, first+1, ... into
// regs.
func (b *Builder) LoadArgs(first int, regs ...Reg) {
	b.distinct("LoadArgs", regs...)
	for i, r := range regs {
		b.LoadArg(r, first+i)
	}
}

// TaskletStatic declares a static holding one bytesPer-byte slot per
// tasklet (MaxTasklets of them, 8-byte aligned).
func (b *Builder) TaskletStatic(name string, bytesPer int) string {
	return b.Static(name, MaxTasklets*bytesPer, 8)
}

// TaskletPtr emits p = &sym + ID*stride (movi, mul, add; clobbers tmp).
func (b *Builder) TaskletPtr(p Reg, sym string, stride int32, tmp Reg) {
	b.distinct("TaskletPtr", p, tmp)
	b.MoviSym(p, sym, 0)
	b.Muli(tmp, ID, stride)
	b.Add(p, p, tmp)
}

// TaskletSlot is TaskletPtr for a power-of-two slot, scaled by a shift
// instead of a multiply: p = &sym + ID<<shift.
func (b *Builder) TaskletSlot(p Reg, sym string, shift int32, tmp Reg) {
	b.distinct("TaskletSlot", p, tmp)
	b.MoviSym(p, sym, 0)
	b.Lsli(tmp, ID, shift)
	b.Add(p, p, tmp)
}

// Index emits dst = base + idx<<shift in place, the address of element idx
// of an array of 1<<shift-byte items (lsl into dst, then add); idx may be
// dst itself.
func (b *Builder) Index(dst, base, idx Reg, shift int32) {
	b.IndexVia(dst, base, idx, shift, dst)
}

// IndexVia is Index with the scaled index left in tmp, for a dst that must
// not be clobbered early (dst == base) or a tmp that is reused.
func (b *Builder) IndexVia(dst, base, idx Reg, shift int32, tmp Reg) {
	b.distinct("Index", base, tmp)
	b.Lsli(tmp, idx, shift)
	b.Add(dst, base, tmp)
}

// ClampSub emits elems = min(end-cur, n), the chunk-size clamp of every
// strip-mined loop.
func (b *Builder) ClampSub(elems, end, cur Reg, n int32) {
	b.distinct("ClampSub", elems, end, cur)
	sized := b.Gensym("sized")
	b.Sub(elems, end, cur)
	b.Jlti(elems, n, sized)
	b.Movi(elems, n)
	b.Label(sized)
}

// ChunkLoop strip-mines [cur, end) into chunks of at most n items:
//
//	top: if cur >= end goto done
//	     elems = min(end-cur, n); body()
//	     cur += elems; rest(top); goto top
//	done:
//
// body stages and processes the chunk; rest (optional) runs after the
// cursor advanced and may branch to top to start the next chunk early.
func (b *Builder) ChunkLoop(cur, end, elems Reg, n int32, body func(), rest func(top string)) {
	top, done := b.Gensym("chunk"), b.Gensym("chunk_done")
	b.Label(top)
	b.Jge(cur, end, done)
	b.ClampSub(elems, end, cur, n)
	body()
	b.Add(cur, cur, elems)
	if rest != nil {
		rest(top)
	}
	b.Jump(top)
	b.Label(done)
}

// StageWords DMAs elems words starting at word cur of the MRAM array src
// into the WRAM buffer buf: bytes = elems*4; mram = src + cur*4; ldma.
func (b *Builder) StageWords(buf, src, cur, elems, bytes, mram Reg) {
	b.distinct("StageWords", buf, src, cur, elems, bytes, mram)
	b.Lsli(bytes, elems, 2)
	b.Index(mram, src, cur, 2)
	b.Ldma(buf, mram, bytes)
}

// Stage names the registers of a StagedLoop: the word cursor Cur walks to
// End over the MRAM array Src in chunks of at most N words, each staged
// into the tasklet's WRAM buffer Buf; Elems, Bytes and Mram are scratch
// (Elems and Bytes hold the chunk's size inside the body); PX and PEnd are
// set to walk the staged words.
type Stage struct {
	Cur, End, Src      Reg
	Elems, Bytes, Mram Reg
	Buf, PX, PEnd      Reg
	N                  int32
}

// StagedLoop is ChunkLoop with the streaming kernels' staging prologue:
// each chunk is fetched with StageWords, then PX = Buf and PEnd = Buf+Bytes
// before body runs.
func (b *Builder) StagedLoop(s Stage, body func(), rest func(top string)) {
	b.distinct("StagedLoop", s.Cur, s.End, s.Src, s.Elems, s.Bytes, s.Mram, s.Buf, s.PX, s.PEnd)
	b.ChunkLoop(s.Cur, s.End, s.Elems, s.N, func() {
		b.StageWords(s.Buf, s.Src, s.Cur, s.Elems, s.Bytes, s.Mram)
		b.Mov(s.PX, s.Buf)
		b.Add(s.PEnd, s.Buf, s.Bytes)
		body()
	}, rest)
}

// PtrRange is the cache-mode prologue turning a word range [start, end)
// into pointers: for each (pointer, base) pair of ptrBase, pointer = base +
// start*4; then pEnd = base0 + end*4, the bound for the first pointer.
func (b *Builder) PtrRange(start, end, tmp, pEnd Reg, ptrBase ...Reg) {
	if len(ptrBase) == 0 || len(ptrBase)%2 != 0 {
		b.panicf("PtrRange wants (pointer, base) pairs, got %d registers", len(ptrBase))
	}
	live := []Reg{start, end, tmp, pEnd}
	b.Lsli(tmp, start, 2)
	for i := 0; i < len(ptrBase); i += 2 {
		live = append(live, ptrBase[i])
		b.Add(ptrBase[i], ptrBase[i+1], tmp)
	}
	b.distinct("PtrRange", live...)
	b.Lsli(tmp, end, 2)
	b.Add(pEnd, ptrBase[1], tmp)
}

// WalkWords is the cache-mode streaming loop over the pointers PtrRange
// set up: while ptrs[0] < pEnd, run body and advance every pointer by one
// word.
func (b *Builder) WalkWords(pEnd Reg, body func(), ptrs ...Reg) {
	b.distinct("WalkWords", append([]Reg{pEnd}, ptrs...)...)
	loop, done := b.Gensym("walk"), b.Gensym("walk_done")
	b.Label(loop)
	b.Jge(ptrs[0], pEnd, done)
	body()
	for _, p := range ptrs {
		b.Addi(p, p, 4)
	}
	b.Jump(loop)
	b.Label(done)
}

// PublishAndWait is the head of every "tasklet 0 finishes the job" tail:
// sym[ID] = val (word slots; clobbers p and tmp), barrier, and every
// tasklet but 0 branches to skip. w1..w3 are the barrier's scratch and may
// reuse p and tmp.
func (b *Builder) PublishAndWait(sym string, val, p, tmp Reg, bar *Barrier, w1, w2, w3 Reg, skip string) {
	b.distinct("PublishAndWait", val, p, tmp)
	b.TaskletSlot(p, sym, 2, tmp)
	b.Sw(val, p, 0)
	b.Wait(bar, w1, w2, w3)
	b.Jnei(ID, 0, skip)
}

// CopyWords copies cnt (> 0) words from src to dst with direct loads and
// stores, advancing both pointers and counting cnt down to zero.
func (b *Builder) CopyWords(src, dst, cnt, tmp Reg) {
	b.distinct("CopyWords", src, dst, cnt, tmp)
	loop := b.Gensym("copy")
	b.Label(loop)
	b.Lw(tmp, src, 0)
	b.Sw(tmp, dst, 0)
	b.Addi(src, src, 4)
	b.Addi(dst, dst, 4)
	b.AddiBr(cnt, cnt, -1, CondNZ, loop)
}

// ResultBuffer names the state of the row kernels' "buffer N results in
// WRAM, flush them with one DMA" frame: Acc is the finished row's value,
// Cnt the results buffered, Row the row cursor, Flush the first row not yet
// written back, Out the MRAM base of the result vector. Buf yields the
// tasklet's buffer pointer: a kernel that keeps it resident returns that
// register and emits nothing, one that is out of registers recomputes it
// into p (scratch tmp) and returns p.
type ResultBuffer struct {
	Acc, Cnt, Row, Flush, Out Reg
	N                         int32
	Buf                       func(p, tmp Reg) Reg
}

// PushResult closes a row: buf[Cnt] = Acc; Cnt++; Row++; back to loop
// until N results are buffered, then one N-word DMA to Out[Flush..], Flush =
// Row, Cnt = 0 and back to loop. s, t and u are scratch; the partial flush
// after the last row stays with the kernel.
func (b *Builder) PushResult(r ResultBuffer, s, t, u Reg, loop string) {
	for _, scratch := range [...]Reg{s, t, u} { // which may alias each other
		b.distinct("PushResult", r.Acc, r.Cnt, r.Row, r.Flush, r.Out, scratch)
	}
	b.IndexVia(s, r.Buf(s, t), r.Cnt, 2, t)
	b.Sw(r.Acc, s, 0)
	b.Addi(r.Cnt, r.Cnt, 1)
	b.Addi(r.Row, r.Row, 1)
	b.Jlti(r.Cnt, r.N, loop)
	b.Index(s, r.Out, r.Flush, 2)
	b.Sdmai(r.Buf(t, u), s, r.N*4)
	b.Mov(r.Flush, r.Row)
	b.Movi(r.Cnt, 0)
	b.Jump(loop)
}
