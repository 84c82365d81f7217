package prim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// UNI: unique — remove consecutive duplicates (the `uniq` primitive). The
// structure mirrors SEL, but the predicate compares against the previous
// element, so each tasklet with a non-zero start peeks one element back.
// This is the paper's poster child for scratchpad-friendly streaming
// (Fig 15/16: UNI prefers the scratchpad over the cache).

const uniChunkElems = 128

func init() {
	register(&Benchmark{
		Name:  "UNI",
		About: "unique / consecutive-duplicate removal (512K elem. in Table II)",
		Params: func(s Scale) Params {
			switch s {
			case ScaleTiny:
				return Params{N: 8 << 10, Seed: 4}
			case ScaleSmall:
				return Params{N: 128 << 10, Seed: 4}
			default:
				return Params{N: 512 << 10, Seed: 4}
			}
		},
		Build: buildUNI,
		Run:   staged(runUNI),
	})
}

func buildUNI(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("uni-" + mode.String())
	rA, rN, rOut, rCntOut := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rStart, rEnd, rTmp, rCnt := kbuild.R(4), kbuild.R(5), kbuild.R(6), kbuild.R(7)
	cnts := b.Static("cnts", 16*4, 8)
	bar := b.NewBarrier("bar")
	b.LoadArg(rA, 0)
	b.LoadArg(rN, 1)
	b.LoadArg(rOut, 2)
	b.LoadArg(rCntOut, 3)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rCnt, 0)

	switch mode {
	case config.ModeScratchpad:
		inBuf := b.Static("inBuf", 16*uniChunkElems*4, 8)
		outBuf := b.Static("outBuf", 16*(uniChunkElems+2)*4, 8)
		prevBuf := b.Static("prevBuf", 16*8, 8)
		pIn, pOut0 := kbuild.R(8), kbuild.R(9)
		rElems, rBytes, rMram := kbuild.R(10), kbuild.R(11), kbuild.R(12)
		pX, pEndW, rX, pW := kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16)
		rWPos, rFlushed, rPrev := kbuild.R(17), kbuild.R(18), kbuild.R(19)
		b.MoviSym(pIn, inBuf, 0)
		b.Muli(rTmp, kbuild.ID, uniChunkElems*4)
		b.Add(pIn, pIn, rTmp)
		b.MoviSym(pOut0, outBuf, 0)
		b.Muli(rTmp, kbuild.ID, (uniChunkElems+2)*4)
		b.Add(pOut0, pOut0, rTmp)
		b.Movi(rWPos, 0)
		b.Movi(rFlushed, 0)
		// Seed prev: sentinel for start==0 (always keep the first element);
		// otherwise fetch a[start-1] with an aligned 8B peek.
		b.Movi(rPrev, -1) // values are >= 0, so -1 never matches
		b.Jeqi(rStart, 0, "chunk")
		b.Jge(rStart, rEnd, "chunk") // empty range
		b.Subi(rTmp, rStart, 1)
		b.Andi(rTmp, rTmp, -2) // even element index
		b.Lsli(rMram, rTmp, 2)
		b.Add(rMram, rA, rMram)
		b.MoviSym(pW, prevBuf, 0)
		b.Lsli(rX, kbuild.ID, 3)
		b.Add(pW, pW, rX)
		b.Ldmai(pW, rMram, 8)
		// a[start-1] is word (start-1) - evenIdx within the peek.
		b.Subi(rX, rStart, 1)
		b.Sub(rX, rX, rTmp)
		b.Lsli(rX, rX, 2)
		b.Add(pW, pW, rX)
		b.Lw(rPrev, pW, 0)

		b.Label("chunk")
		b.Jge(rStart, rEnd, "tail")
		b.Sub(rElems, rEnd, rStart)
		b.Jlti(rElems, uniChunkElems, "sized")
		b.Movi(rElems, uniChunkElems)
		b.Label("sized")
		b.Lsli(rBytes, rElems, 2)
		b.Lsli(rMram, rStart, 2)
		b.Add(rMram, rA, rMram)
		b.Ldma(pIn, rMram, rBytes)
		b.Mov(pX, pIn)
		b.Add(pEndW, pIn, rBytes)
		b.Label("inner")
		b.Lw(rX, pX, 0)
		b.SubBr(rTmp, rX, rPrev, kbuild.CondZ, "skip") // duplicate of prev
		b.Lsli(rTmp, rWPos, 2)
		b.Add(pW, pOut0, rTmp)
		b.Sw(rX, pW, 0)
		b.Addi(rWPos, rWPos, 1)
		b.Label("skip")
		b.Mov(rPrev, rX)
		b.Addi(pX, pX, 4)
		b.Jlt(pX, pEndW, "inner")
		b.Add(rStart, rStart, rElems)
		// Flush the even part of the pending output (same dance as SEL).
		b.Andi(rTmp, rWPos, -2)
		b.Jeqi(rTmp, 0, "chunk")
		b.Lsli(rBytes, rTmp, 2)
		b.LoadArg(rElems, 1)
		b.TaskletRangeAligned(rMram, pX, rElems, pEndW, 2)
		b.Add(rMram, rMram, rFlushed)
		b.Lsli(rMram, rMram, 2)
		b.Add(rMram, rOut, rMram)
		b.Sdma(pOut0, rMram, rBytes)
		b.Add(rFlushed, rFlushed, rTmp)
		b.Sub(rWPos, rWPos, rTmp)
		b.Jeqi(rWPos, 0, "chunk")
		b.Lsli(rTmp, rTmp, 2)
		b.Add(pW, pOut0, rTmp)
		b.Lw(rX, pW, 0)
		b.Sw(rX, pOut0, 0)
		b.Jump("chunk")
		b.Label("tail")
		b.Add(rCnt, rFlushed, rWPos)
		b.Jeqi(rWPos, 0, "publish")
		b.Addi(rTmp, rWPos, 1)
		b.Andi(rTmp, rTmp, -2)
		b.Lsli(rBytes, rTmp, 2)
		b.LoadArg(rElems, 1)
		b.TaskletRangeAligned(rMram, pX, rElems, pEndW, 2)
		b.Add(rMram, rMram, rFlushed)
		b.Lsli(rMram, rMram, 2)
		b.Add(rMram, rOut, rMram)
		b.Sdma(pOut0, rMram, rBytes)
		b.Label("publish")
		emitSelUniCounts(b, mode, bar, cnts, rCnt, rCntOut)
		b.Stop()

	case config.ModeCache:
		pX, pEndW, pW, rX, rPrev := kbuild.R(8), kbuild.R(9), kbuild.R(10), kbuild.R(11), kbuild.R(12)
		b.Lsli(rTmp, rStart, 2)
		b.Add(pX, rA, rTmp)
		b.Add(pW, rOut, rTmp)
		b.Lsli(rTmp, rEnd, 2)
		b.Add(pEndW, rA, rTmp)
		b.Movi(rPrev, -1)
		b.Jeqi(rStart, 0, "loop")
		b.Jge(rStart, rEnd, "loop")
		b.Lw(rPrev, pX, -4) // direct peek at a[start-1]
		b.Label("loop")
		b.Jge(pX, pEndW, "publish")
		b.Lw(rX, pX, 0)
		b.SubBr(rTmp, rX, rPrev, kbuild.CondZ, "skip")
		b.Sw(rX, pW, 0)
		b.Addi(pW, pW, 4)
		b.Addi(rCnt, rCnt, 1)
		b.Label("skip")
		b.Mov(rPrev, rX)
		b.Addi(pX, pX, 4)
		b.Jump("loop")
		b.Label("publish")
		emitSelUniCounts(b, mode, bar, cnts, rCnt, rCntOut)
		b.Stop()

	default:
		return nil, fmt.Errorf("uni: unsupported mode %v", mode)
	}
	return b.Build()
}

// runUNI draws runs-friendly data (values in [0,8), so consecutive duplicates
// are common). The golden rule matches the kernel: within each DPU slice,
// keep element i iff it is the slice's first element or differs from its
// predecessor.
func runUNI(ctx context.Context, x *xfer, p Params) error {
	p.Seed += 77
	return runCompaction(ctx, x, p, "UNI", 8,
		func(a []int32, sliceStart, i int) bool { return i == sliceStart || a[i] != a[i-1] })
}
