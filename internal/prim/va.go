package prim

import (
	"context"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// VA: element-wise vector addition, the paper's running example (Fig 2).
// Scratchpad variant stages 128-element chunks of A and B through WRAM and
// writes C back by DMA; cache variant streams directly through the D-cache.

const vaChunkElems = 128

func buildVA(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("va-" + mode.String())
	rA, rB, rC, rN := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rStart, rEnd, rTmp := kbuild.R(4), kbuild.R(5), kbuild.R(6)
	b.LoadArgs(0, rA, rB, rC, rN)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)

	switch mode {
	case config.ModeScratchpad:
		bufA := b.TaskletStatic("bufA", vaChunkElems*4)
		bufB := b.TaskletStatic("bufB", vaChunkElems*4)
		pA, pB := kbuild.R(7), kbuild.R(8)
		rElems, rBytes, rOff, rMram := kbuild.R(9), kbuild.R(10), kbuild.R(11), kbuild.R(12)
		pX, pY, pEndW, rX, rY := kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16), kbuild.R(17)

		// One scaled ID serves both buffer pointers.
		b.Muli(rTmp, kbuild.ID, vaChunkElems*4)
		b.MoviSym(pA, bufA, 0)
		b.Add(pA, pA, rTmp)
		b.MoviSym(pB, bufB, 0)
		b.Add(pB, pB, rTmp)

		b.ChunkLoop(rStart, rEnd, rElems, vaChunkElems, func() {
			b.Lsli(rBytes, rElems, 2)
			b.Lsli(rOff, rStart, 2)
			// Stage A and B chunks at the shared byte offset rOff.
			b.Add(rMram, rA, rOff)
			b.Ldma(pA, rMram, rBytes)
			b.Add(rMram, rB, rOff)
			b.Ldma(pB, rMram, rBytes)
			// c[i] = a[i] + b[i] over the staged chunk.
			b.Mov(pX, pA)
			b.Mov(pY, pB)
			b.Add(pEndW, pA, rBytes)
			b.Label("inner")
			b.Lw(rX, pX, 0)
			b.Lw(rY, pY, 0)
			b.Add(rX, rX, rY)
			b.Sw(rX, pX, 0)
			b.Addi(pX, pX, 4)
			b.Addi(pY, pY, 4)
			b.Jlt(pX, pEndW, "inner")
			// Write the result chunk.
			b.Add(rMram, rC, rOff)
			b.Sdma(pA, rMram, rBytes)
		}, nil)
		b.Stop()

	case config.ModeCache:
		pA, pB, pC, pEnd := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		rX, rY := kbuild.R(11), kbuild.R(12)
		b.PtrRange(rStart, rEnd, rTmp, pEnd, pA, rA, pB, rB, pC, rC)
		b.WalkWords(pEnd, func() {
			b.Lw(rX, pA, 0)
			b.Lw(rY, pB, 0)
			b.Add(rX, rX, rY)
			b.Sw(rX, pC, 0)
		}, pA, pB, pC)
		b.Stop()
	}
	return b.Build()
}

func runVA(ctx context.Context, x *xfer, p Params) error {
	n := p.N
	a := randI32s(n, 1<<20, p.Seed)
	bv := randI32s(n, 1<<20, p.Seed+1)
	want := x.ints(n)
	for i := range want {
		want[i] = a[i] + bv[i]
	}

	slices := ranges(n, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	for d, r := range slices {
		var m mram
		cnt := r[1] - r[0]
		ra, rb := m.words(cnt), m.words(cnt)
		outs[d] = m.words(cnt)
		x.put(d, ra, a[r[0]:r[1]])
		x.put(d, rb, bv[r[0]:r[1]])
		x.args(d, ra.addr(), rb.addr(), outs[d].addr(), uint32(cnt))
	}
	x.launch(ctx, host.PhaseOutput)
	return checkI32s("VA", x.gather(outs), want)
}
