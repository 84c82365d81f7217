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

func init() {
	register(&Benchmark{
		Name:  "RED",
		About: "sum reduction (512K elem. single-DPU in Table II)",
		Params: func(s Scale) Params {
			switch s {
			case ScaleTiny:
				return Params{N: 8 << 10, Seed: 2}
			case ScaleSmall:
				return Params{N: 128 << 10, Seed: 2}
			default:
				return Params{N: 512 << 10, Seed: 2}
			}
		},
		Build: buildRED,
		Run:   staged(runRED),
	})
}

func buildRED(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("red-" + mode.String())
	rA, rN, rOut := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	rStart, rEnd, rTmp, rSum := kbuild.R(3), kbuild.R(4), kbuild.R(5), kbuild.R(6)
	partials := b.Static("partials", 16*4, 8)
	bar := b.NewBarrier("bar")
	b.LoadArg(rA, 0)
	b.LoadArg(rN, 1)
	b.LoadArg(rOut, 2)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rSum, 0)

	switch mode {
	case config.ModeScratchpad:
		buf := b.Static("buf", 16*redChunkElems*4, 8)
		stage := b.Static("stage", 8, 8)
		pBuf, rElems, rBytes, rMram := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		pX, pEndW, rX := kbuild.R(11), kbuild.R(12), kbuild.R(13)
		b.MoviSym(pBuf, buf, 0)
		b.Muli(rTmp, kbuild.ID, redChunkElems*4)
		b.Add(pBuf, pBuf, rTmp)
		b.Label("chunk")
		b.Jge(rStart, rEnd, "reduce")
		b.Sub(rElems, rEnd, rStart)
		b.Jlti(rElems, redChunkElems, "sized")
		b.Movi(rElems, redChunkElems)
		b.Label("sized")
		b.Lsli(rBytes, rElems, 2)
		b.Lsli(rMram, rStart, 2)
		b.Add(rMram, rA, rMram)
		b.Ldma(pBuf, rMram, rBytes)
		b.Mov(pX, pBuf)
		b.Add(pEndW, pBuf, rBytes)
		b.Label("inner")
		b.Lw(rX, pX, 0)
		b.Add(rSum, rSum, rX)
		b.Addi(pX, pX, 4)
		b.Jlt(pX, pEndW, "inner")
		b.Add(rStart, rStart, rElems)
		b.Jump("chunk")
		// Publish partial, synchronize, tasklet 0 reduces and stores.
		b.Label("reduce")
		b.MoviSym(rTmp, partials, 0)
		b.Lsli(rX, kbuild.ID, 2)
		b.Add(rTmp, rTmp, rX)
		b.Sw(rSum, rTmp, 0)
		b.Wait(bar, kbuild.R(14), kbuild.R(15), kbuild.R(16))
		b.Jnei(kbuild.ID, 0, "done")
		b.MoviSym(rTmp, partials, 0)
		b.Movi(rSum, 0)
		b.Movi(rX, 0) // t counter
		b.Label("final")
		b.Lw(rElems, rTmp, 0)
		b.Add(rSum, rSum, rElems)
		b.Addi(rTmp, rTmp, 4)
		b.Addi(rX, rX, 1)
		b.Jlt(rX, kbuild.NTH, "final")
		b.MoviSym(rTmp, stage, 0)
		b.Sw(rSum, rTmp, 0)
		b.Movi(rX, 0)
		b.Sw(rX, rTmp, 4)
		b.Sdmai(rTmp, rOut, 8)
		b.Label("done")
		b.Stop()

	case config.ModeCache:
		pX, pEndW, rX := kbuild.R(7), kbuild.R(8), kbuild.R(9)
		b.Lsli(rTmp, rStart, 2)
		b.Add(pX, rA, rTmp)
		b.Lsli(rTmp, rEnd, 2)
		b.Add(pEndW, rA, rTmp)
		b.Label("loop")
		b.Jge(pX, pEndW, "reduce")
		b.Lw(rX, pX, 0)
		b.Add(rSum, rSum, rX)
		b.Addi(pX, pX, 4)
		b.Jump("loop")
		b.Label("reduce")
		b.MoviSym(rTmp, partials, 0)
		b.Lsli(rX, kbuild.ID, 2)
		b.Add(rTmp, rTmp, rX)
		b.Sw(rSum, rTmp, 0)
		b.Wait(bar, kbuild.R(10), kbuild.R(11), kbuild.R(12))
		b.Jnei(kbuild.ID, 0, "done")
		b.MoviSym(rTmp, partials, 0)
		b.Movi(rSum, 0)
		b.Movi(rX, 0)
		b.Label("final")
		b.Lw(pX, rTmp, 0)
		b.Add(rSum, rSum, pX)
		b.Addi(rTmp, rTmp, 4)
		b.Addi(rX, rX, 1)
		b.Jlt(rX, kbuild.NTH, "final")
		b.Sw(rSum, rOut, 0) // direct store through the D-cache
		b.Label("done")
		b.Stop()

	default:
		return nil, fmt.Errorf("red: unsupported mode %v", mode)
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
