package prim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// RED: parallel sum reduction. Tasklets stream disjoint slices, accumulate
// per-tasklet partials in WRAM, synchronize on a barrier, and tasklet 0
// produces the final sum.

const redChunkElems = 128

func buildRED(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("red-" + mode.String())
	rA, rN, rOut := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	rStart, rEnd, rTmp, rSum := kbuild.R(3), kbuild.R(4), kbuild.R(5), kbuild.R(6)
	partials := b.TaskletStatic("partials", 4)
	bar := b.NewBarrier("bar")
	b.LoadArgs(0, rA, rN, rOut)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rSum, 0)

	// reduce is the tail of both modes: publish the partial, synchronize,
	// and tasklet 0 sums the partials (through rLd, counting in rI) and
	// stores the result.
	reduce := func(rLd, rI, w1, w2, w3 kbuild.Reg, store func()) {
		b.PublishAndWait(partials, rSum, rTmp, rI, bar, w1, w2, w3, "done")
		b.MoviSym(rTmp, partials, 0)
		b.Movi(rSum, 0)
		b.Movi(rI, 0)
		b.Label("final")
		b.Lw(rLd, rTmp, 0)
		b.Add(rSum, rSum, rLd)
		b.Addi(rTmp, rTmp, 4)
		b.Addi(rI, rI, 1)
		b.Jlt(rI, kbuild.NTH, "final")
		store()
		b.Label("done")
		b.Stop()
	}

	switch mode {
	case config.ModeScratchpad:
		buf := b.TaskletStatic("buf", redChunkElems*4)
		stage := b.Static("stage", 8, 8)
		pBuf, rElems, rBytes, rMram := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		pX, pEndW, rX := kbuild.R(11), kbuild.R(12), kbuild.R(13)
		b.TaskletPtr(pBuf, buf, redChunkElems*4, rTmp)
		b.StagedLoop(kbuild.Stage{Cur: rStart, End: rEnd, Src: rA, Elems: rElems, Bytes: rBytes,
			Mram: rMram, Buf: pBuf, PX: pX, PEnd: pEndW, N: redChunkElems}, func() {
			b.Label("inner")
			b.Lw(rX, pX, 0)
			b.Add(rSum, rSum, rX)
			b.Addi(pX, pX, 4)
			b.Jlt(pX, pEndW, "inner")
		}, nil)
		reduce(rElems, rX, kbuild.R(14), kbuild.R(15), kbuild.R(16), func() {
			b.MoviSym(rTmp, stage, 0)
			b.Sw(rSum, rTmp, 0)
			b.Movi(rX, 0)
			b.Sw(rX, rTmp, 4)
			b.Sdmai(rTmp, rOut, 8)
		})

	case config.ModeCache:
		pX, pEndW, rX := kbuild.R(7), kbuild.R(8), kbuild.R(9)
		b.PtrRange(rStart, rEnd, rTmp, pEndW, pX, rA)
		b.WalkWords(pEndW, func() {
			b.Lw(rX, pX, 0)
			b.Add(rSum, rSum, rX)
		}, pX)
		reduce(pX, rX, kbuild.R(10), kbuild.R(11), kbuild.R(12), func() {
			b.Sw(rSum, rOut, 0) // direct store through the D-cache
		})
	}
	return b.Build()
}

func runRED(ctx context.Context, x *xfer, p Params) error {
	n := p.N
	a := randI32s(n, 1<<16, p.Seed)
	var want int32
	for _, v := range a {
		want += v
	}
	// One layout for every DPU, sized by the first (largest) slice.
	slices := ranges(n, x.sys.NumDPUs(), 2)
	var m mram
	in, out := m.words(slices[0][1]-slices[0][0]), m.words(1)
	for d, r := range slices {
		x.put(d, in, a[r[0]:r[1]])
		x.args(d, in.addr(), uint32(r[1]-r[0]), out.addr())
	}
	x.launch(ctx, host.PhaseOutput)
	var got int32
	for d := range slices {
		got += x.get(d, out)[0]
	}
	if got != want {
		return fmt.Errorf("RED: sum = %d, want %d", got, want)
	}
	return nil
}
