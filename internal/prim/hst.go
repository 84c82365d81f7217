package prim

import (
	"context"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// HST-S and HST-L: 256-bin histogram in PrIM's two flavours.
//
//   - HST-S keeps a private histogram per tasklet in WRAM and tree-merges
//     after a barrier — cheap updates, more WRAM.
//   - HST-L shares a single histogram, serializing every update behind a
//     mutex. Contention turns into a storm of acquire instructions, which is
//     exactly the synchronization-dominated instruction mix the paper calls
//     out for HST-L in Fig 9.

const (
	hstBins       = 256
	hstChunkElems = 128
)

func buildHST(mode config.Mode, large bool) (*linker.Object, error) {
	variant := "s"
	if large {
		variant = "l"
	}
	b := kbuild.New("hst-" + variant + "-" + mode.String())
	rA, rN, rOut, rShift := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rStart, rEnd, rTmp := kbuild.R(4), kbuild.R(5), kbuild.R(6)
	bar := b.NewBarrier("bar")
	b.LoadArgs(0, rA, rN, rOut, rShift)

	var hist, priv string
	var lock int
	if large {
		hist = b.Static("hist", hstBins*4, 8)
		lock = b.AllocLock()
	} else {
		priv = b.TaskletStatic("priv", hstBins*4)
		hist = b.Static("hist", hstBins*4, 8)
	}

	pH, rBin, rX, rC := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
	// rBytes is the staged chunk's size, then the HST-S ship length; rLd and
	// rStep are HST-S merge temporaries in the (then dead) walk registers.
	rBytes, rLd, rStep := kbuild.R(16), kbuild.R(18), kbuild.R(19)

	// Zero this tasklet's private copy (HST-S) or a slice of the shared one
	// (HST-L), then synchronize.
	if large {
		rBs, rBe := kbuild.R(11), kbuild.R(12)
		b.Movi(rTmp, hstBins)
		b.TaskletRangeAligned(rBs, rBe, rTmp, rBin, 2)
		b.MoviSym(pH, hist, 0)
		b.IndexVia(pH, pH, rBs, 2, rTmp)
		b.Label("zloop")
		b.Jge(rBs, rBe, "zdone")
		b.Sw(kbuild.Zero, pH, 0)
		b.Addi(pH, pH, 4)
		b.Addi(rBs, rBs, 1)
		b.Jump("zloop")
		b.Label("zdone")
	} else {
		b.TaskletPtr(pH, priv, hstBins*4, rTmp)
		b.Movi(rBin, hstBins)
		b.Label("zloop")
		b.Sw(kbuild.Zero, pH, 0)
		b.Addi(pH, pH, 4)
		b.AddiBr(rBin, rBin, -1, kbuild.CondNZ, "zloop")
	}
	b.Wait(bar, kbuild.R(11), kbuild.R(12), kbuild.R(13))
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)

	// update emits the per-element bin increment: into the shared histogram
	// under the mutex (HST-L), or into this tasklet's private copy (HST-S).
	update := func() {
		b.Lsr(rBin, rX, rShift)
		b.Lsli(rBin, rBin, 2)
		if large {
			b.MoviSym(rTmp, hist, 0)
			b.Add(rTmp, rTmp, rBin)
			b.AcquireSpin(lock)
		} else {
			b.MoviSym(rTmp, priv, 0)
			b.Add(rTmp, rTmp, rBin)
			b.Muli(rBin, kbuild.ID, hstBins*4)
			b.Add(rTmp, rTmp, rBin)
		}
		b.Lw(rC, rTmp, 0)
		b.Addi(rC, rC, 1)
		b.Sw(rC, rTmp, 0)
		if large {
			b.Release(lock)
		}
	}

	switch mode {
	case config.ModeScratchpad:
		buf := b.TaskletStatic("buf", hstChunkElems*4)
		pBuf, rElems, rMram := kbuild.R(14), kbuild.R(15), kbuild.R(17)
		pX, pEndW := kbuild.R(18), kbuild.R(19)
		b.TaskletPtr(pBuf, buf, hstChunkElems*4, rTmp)
		b.StagedLoop(kbuild.Stage{Cur: rStart, End: rEnd, Src: rA, Elems: rElems, Bytes: rBytes,
			Mram: rMram, Buf: pBuf, PX: pX, PEnd: pEndW, N: hstChunkElems}, func() {
			b.Label("inner")
			b.Lw(rX, pX, 0)
			update()
			b.Addi(pX, pX, 4)
			b.Jlt(pX, pEndW, "inner")
		}, nil)

	case config.ModeCache:
		pX, pEndW := kbuild.R(14), kbuild.R(15)
		b.PtrRange(rStart, rEnd, rTmp, pEndW, pX, rA)
		b.WalkWords(pEndW, func() {
			b.Lw(rX, pX, 0)
			update()
		}, pX)
	}

	// Merge + writeback.
	b.Label("merge")
	b.Wait(bar, kbuild.R(11), kbuild.R(12), kbuild.R(13))
	rBs, rBe := kbuild.R(11), kbuild.R(12)
	if large {
		// Tasklet 0 ships the shared histogram out.
		b.Jnei(kbuild.ID, 0, "done")
		b.MoviSym(pH, hist, 0)
		if mode == config.ModeScratchpad {
			b.Sdmai(pH, rOut, hstBins*4)
		} else {
			b.Movi(rBin, hstBins)
			b.CopyWords(pH, rOut, rBin, rX)
		}
	} else {
		// Each tasklet reduces a slice of bins across all private copies and
		// writes that slice out.
		b.Movi(rTmp, hstBins)
		b.TaskletRangeAligned(rBs, rBe, rTmp, rBin, 2)
		b.Label("mloop")
		b.Jge(rBs, rBe, "ship")
		b.MoviSym(rTmp, priv, 0)
		b.IndexVia(rTmp, rTmp, rBs, 2, rBin)
		b.Movi(rC, 0)
		b.Movi(rX, 0)
		b.Label("tsum")
		b.Lw(rLd, rTmp, 0)
		b.Add(rC, rC, rLd)
		b.Movi(rStep, hstBins*4)
		b.Add(rTmp, rTmp, rStep)
		b.Addi(rX, rX, 1)
		b.Jlt(rX, kbuild.NTH, "tsum")
		b.MoviSym(rTmp, hist, 0)
		b.IndexVia(rTmp, rTmp, rBs, 2, rBin)
		b.Sw(rC, rTmp, 0)
		b.Addi(rBs, rBs, 1)
		b.Jump("mloop")
		// Ship my merged slice.
		b.Label("ship")
		b.Movi(rTmp, hstBins)
		b.TaskletRangeAligned(rBs, rBe, rTmp, rBin, 2)
		b.Sub(rTmp, rBe, rBs)
		b.Jeqi(rTmp, 0, "done")
		if mode == config.ModeScratchpad {
			b.Lsli(rBytes, rTmp, 2) // the DMA below wants bytes
		}
		b.MoviSym(pH, hist, 0)
		b.IndexVia(pH, pH, rBs, 2, rBin)
		b.Add(rOut, rOut, rBin)
		if mode == config.ModeScratchpad {
			b.Sdma(pH, rOut, rBytes)
		} else {
			b.CopyWords(pH, rOut, rTmp, rX)
		}
	}
	b.Label("done")
	b.Stop()
	return b.Build()
}

func runHST(ctx context.Context, x *xfer, p Params) error {
	n, bins := p.N, p.Bins
	const shift = 4
	a := randI32s(n, int32(bins)<<shift, p.Seed)
	want := x.ints(bins)
	for _, v := range a {
		want[v>>shift]++
	}
	slices := ranges(n, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	for d, r := range slices {
		var m mram
		in := m.words(r[1] - r[0])
		outs[d] = m.words(bins)
		x.put(d, in, a[r[0]:r[1]])
		x.args(d, in.addr(), uint32(in.words), outs[d].addr(), shift)
	}
	x.launch(ctx, host.PhaseOutput)
	got := x.ints(bins)
	for d := range slices {
		for i, v := range x.get(d, outs[d]) {
			got[i] += v
		}
	}
	return checkI32s("HST", got, want)
}
