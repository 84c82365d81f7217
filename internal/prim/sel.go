package prim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// SEL: stream compaction — keep elements satisfying the predicate
// (x & 1) == 0. Each tasklet compacts its slice densely into a per-tasklet
// output region starting at out+start*4 and reports its kept-count; the host
// stitches slices together (the same per-partition layout PrIM's multi-DPU
// SEL hands back to the host).

// compactChunkElems is the staging chunk of both compaction kernels.
const compactChunkElems = 128

// compactRegs names the registers a compaction's predicate and
// prev-seeding closures may use: the input base and this tasklet's word
// range, the scratch tmp, the element x under test and the pointer pX it was
// loaded through, the previous element prev (UNI), and — free until the
// first element is written — the scratch pW and, in scratchpad mode, mram.
type compactRegs struct {
	a, start, end, tmp, mram, pX, pW, x, prev kbuild.Reg
}

func buildSEL(mode config.Mode) (*linker.Object, error) {
	return buildCompaction("sel", mode, func(b *kbuild.Builder, r compactRegs, skip string) {
		b.AndiBr(r.tmp, r.x, 1, kbuild.CondNZ, skip) // odd -> dropped
	}, nil)
}

// buildCompaction lowers SEL and UNI, which differ in the predicate only.
// Each tasklet walks its slice, keeps the elements drop does not branch to
// skip for, and packs them densely at out+start*4; drop sees the element in
// r.x. A non-nil seedPrev makes the kernel track the previous element in
// r.prev: seedPrev initializes it before the first element, and every
// element (kept or not) is moved into it afterwards. Per-tasklet kept-counts
// are published at the end: staged in WRAM, barrier, tasklet 0 ships all of
// them (one DMA in scratchpad mode, direct stores in cache mode).
func buildCompaction(name string, mode config.Mode,
	drop func(b *kbuild.Builder, r compactRegs, skip string),
	seedPrev func(b *kbuild.Builder, mode config.Mode, r compactRegs)) (*linker.Object, error) {
	b := kbuild.New(name + "-" + mode.String())
	rA, rN, rOut, rCntOut := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rStart, rEnd, rTmp, rCnt := kbuild.R(4), kbuild.R(5), kbuild.R(6), kbuild.R(7)
	cnts := b.TaskletStatic("cnts", 4)
	bar := b.NewBarrier("bar")
	b.LoadArgs(0, rA, rN, rOut, rCntOut)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rCnt, 0)
	r := compactRegs{a: rA, start: rStart, end: rEnd, tmp: rTmp}

	switch mode {
	case config.ModeScratchpad:
		inBuf := b.TaskletStatic("inBuf", compactChunkElems*4)
		outBuf := b.TaskletStatic("outBuf", (compactChunkElems+2)*4)
		pIn, pOut0 := kbuild.R(8), kbuild.R(9)
		rElems, rBytes, rMram := kbuild.R(10), kbuild.R(11), kbuild.R(12)
		pX, pEndW, rX, pW := kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16)
		rWPos, rFlushed := kbuild.R(17), kbuild.R(18)
		r.mram, r.pX, r.pW, r.x, r.prev = rMram, pX, pW, rX, kbuild.R(19)
		b.TaskletPtr(pIn, inBuf, compactChunkElems*4, rTmp)
		b.TaskletPtr(pOut0, outBuf, (compactChunkElems+2)*4, rTmp)
		b.Movi(rWPos, 0)    // pending elements in outBuf
		b.Movi(rFlushed, 0) // elements already written to MRAM
		if seedPrev != nil {
			seedPrev(b, mode, r)
		}
		// flushOut writes rBytes of outBuf to out + (tasklet base +
		// flushed)*4. The tasklet base is the original start; recompute it
		// from n (rElems, pX and pEndW are free between chunks).
		flushOut := func() {
			b.LoadArg(rElems, 1)
			b.TaskletRangeAligned(rMram, pX, rElems, pEndW, 2)
			b.Add(rMram, rMram, rFlushed)
			b.Index(rMram, rOut, rMram, 2)
			b.Sdma(pOut0, rMram, rBytes)
		}
		b.StagedLoop(kbuild.Stage{Cur: rStart, End: rEnd, Src: rA, Elems: rElems, Bytes: rBytes,
			Mram: rMram, Buf: pIn, PX: pX, PEnd: pEndW, N: compactChunkElems}, func() {
			b.Label("inner")
			b.Lw(rX, pX, 0)
			drop(b, r, "skip")
			b.IndexVia(pW, pOut0, rWPos, 2, rTmp)
			b.Sw(rX, pW, 0)
			b.Addi(rWPos, rWPos, 1)
			b.Label("skip")
			if seedPrev != nil {
				b.Mov(r.prev, rX)
			}
			b.Addi(pX, pX, 4)
			b.Jlt(pX, pEndW, "inner")
		}, func(top string) {
			// Flush an even number of pending elements.
			b.Andi(rTmp, rWPos, -2)
			b.Jeqi(rTmp, 0, top)
			b.Lsli(rBytes, rTmp, 2)
			flushOut()
			b.Add(rFlushed, rFlushed, rTmp)
			// Move a trailing odd element to the buffer head.
			b.Sub(rWPos, rWPos, rTmp)
			b.Jeqi(rWPos, 0, top)
			b.IndexVia(pW, pOut0, rTmp, 2, rTmp)
			b.Lw(rX, pW, 0)
			b.Sw(rX, pOut0, 0)
		})
		// Tail: flush the final (possibly odd, padded to even) element(s).
		b.Add(rCnt, rFlushed, rWPos)
		b.Jeqi(rWPos, 0, "publish")
		b.Addi(rTmp, rWPos, 1)
		b.Andi(rTmp, rTmp, -2) // round up to even
		b.Lsli(rBytes, rTmp, 2)
		flushOut()

	case config.ModeCache:
		pX, pEndW, pW, rX := kbuild.R(8), kbuild.R(9), kbuild.R(10), kbuild.R(11)
		r.pX, r.pW, r.x, r.prev = pX, pW, rX, kbuild.R(12)
		b.PtrRange(rStart, rEnd, rTmp, pEndW, pX, rA, pW, rOut)
		if seedPrev != nil {
			seedPrev(b, mode, r)
		}
		b.WalkWords(pEndW, func() {
			b.Lw(rX, pX, 0)
			drop(b, r, "skip")
			b.Sw(rX, pW, 0)
			b.Addi(pW, pW, 4)
			b.Addi(rCnt, rCnt, 1)
			b.Label("skip")
			if seedPrev != nil {
				b.Mov(r.prev, rX)
			}
		}, pX)
	}

	b.Label("publish")
	pC, rI := kbuild.R(20), kbuild.R(21)
	b.PublishAndWait(cnts, rCnt, pC, rI, bar, kbuild.R(19), kbuild.R(20), kbuild.R(21), "cnt_done")
	b.MoviSym(pC, cnts, 0)
	if mode == config.ModeScratchpad {
		b.Sdmai(pC, rCntOut, kbuild.MaxTasklets*4)
	} else {
		// Direct stores of NTH words.
		b.Movi(rI, 0)
		b.Label("cnt_loop")
		b.Lw(kbuild.R(19), pC, 0)
		b.Sw(kbuild.R(19), rCntOut, 0)
		b.Addi(pC, pC, 4)
		b.Addi(rCntOut, rCntOut, 4)
		b.Addi(rI, rI, 1)
		b.Jlt(rI, kbuild.NTH, "cnt_loop")
	}
	b.Label("cnt_done")
	b.Stop()
	return b.Build()
}

func runSEL(ctx context.Context, x *xfer, p Params) error {
	return runCompaction(ctx, x, p, "SEL", 1<<10,
		func(a []int32, _, i int) bool { return a[i]&1 == 0 })
}

// runCompaction drives SEL and UNI, which share the dense-per-tasklet output
// layout: inputs drawn from [0, bound), and keep deciding by global index
// with access to the full array and the DPU slice start (UNI's neighbour
// comparison restarts at slice boundaries; SEL looks at the value alone).
func runCompaction(ctx context.Context, x *xfer, p Params, what string, bound int32,
	keep func(a []int32, sliceStart, i int) bool) error {
	a := randI32s(p.N, bound, p.Seed)
	slices := ranges(p.N, x.sys.NumDPUs(), 2)
	type lay struct{ out, counts region }
	lays := make([]lay, len(slices))
	for d, r := range slices {
		var m mram
		cnt := r[1] - r[0]
		in := m.words(cnt)
		lays[d] = lay{out: m.words(cnt), counts: m.words(16)}
		x.put(d, in, a[r[0]:r[1]])
		x.args(d, in.addr(), uint32(cnt), lays[d].out.addr(), lays[d].counts.addr())
	}
	x.launch(ctx, host.PhaseOutput)
	nth := x.sys.Config().NumTasklets
	want := x.ints(slices[0][1] - slices[0][0])
	for d, r := range slices {
		var counts [16]int32
		copy(counts[:], x.get(d, lays[d].counts))
		out := x.get(d, lays[d].out)
		// Verify each tasklet's dense region (the kernel's
		// TaskletRangeAligned split, 2 items) against the golden
		// compaction of its slice.
		for t, tr := range ranges(r[1]-r[0], nth, 2) {
			want = want[:0]
			for gi := r[0] + tr[0]; gi < r[0]+tr[1]; gi++ {
				if keep(a, r[0], gi) {
					want = append(want, a[gi])
				}
			}
			if int(counts[t]) != len(want) {
				return fmt.Errorf("%s: dpu %d tasklet %d count = %d, want %d",
					what, d, t, counts[t], len(want))
			}
			if err := checkI32s(what, out[tr[0]:tr[0]+len(want)], want); err != nil {
				return fmt.Errorf("dpu %d tasklet %d: %w", d, t, err)
			}
		}
	}
	return nil
}
