package prim

import (
	"context"
	"fmt"

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

func init() {
	params := func(seed int64) func(Scale) Params {
		return func(s Scale) Params {
			switch s {
			case ScaleTiny:
				return Params{N: 8 << 10, Bins: hstBins, Seed: seed}
			case ScaleSmall:
				return Params{N: 64 << 10, Bins: hstBins, Seed: seed}
			default:
				return Params{N: 128 << 10, Bins: hstBins, Seed: seed}
			}
		}
	}
	register(&Benchmark{
		Name:   "HST-S",
		About:  "histogram, per-tasklet private copies (128K elem., 256 bins)",
		Params: params(7),
		Build:  func(m config.Mode) (*linker.Object, error) { return buildHST(m, false) },
		Run:    staged(runHST),
	})
	register(&Benchmark{
		Name:   "HST-L",
		About:  "histogram, shared copy behind a mutex (128K elem., 256 bins)",
		Params: params(8),
		Build:  func(m config.Mode) (*linker.Object, error) { return buildHST(m, true) },
		Run:    staged(runHST),
	})
}

func buildHST(mode config.Mode, large bool) (*linker.Object, error) {
	variant := "s"
	if large {
		variant = "l"
	}
	b := kbuild.New("hst-" + variant + "-" + mode.String())
	rA, rN, rOut, rShift := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rStart, rEnd, rTmp := kbuild.R(4), kbuild.R(5), kbuild.R(6)
	bar := b.NewBarrier("bar")
	b.LoadArg(rA, 0)
	b.LoadArg(rN, 1)
	b.LoadArg(rOut, 2)
	b.LoadArg(rShift, 3)

	var hist, priv string
	var lock int
	if large {
		hist = b.Static("hist", hstBins*4, 8)
		lock = b.AllocLock()
	} else {
		priv = b.Static("priv", 16*hstBins*4, 8)
		hist = b.Static("hist", hstBins*4, 8)
	}

	pH, rBin, rX, rC := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)

	// Zero this tasklet's private copy (HST-S) or a slice of the shared one
	// (HST-L), then synchronize.
	if large {
		rBs, rBe := kbuild.R(11), kbuild.R(12)
		b.Movi(rTmp, hstBins)
		b.TaskletRangeAligned(rBs, rBe, rTmp, rBin, 2)
		b.MoviSym(pH, hist, 0)
		b.Lsli(rTmp, rBs, 2)
		b.Add(pH, pH, rTmp)
		b.Label("zloop")
		b.Jge(rBs, rBe, "zdone")
		b.Sw(kbuild.Zero, pH, 0)
		b.Addi(pH, pH, 4)
		b.Addi(rBs, rBs, 1)
		b.Jump("zloop")
		b.Label("zdone")
	} else {
		b.MoviSym(pH, priv, 0)
		b.Muli(rTmp, kbuild.ID, hstBins*4)
		b.Add(pH, pH, rTmp)
		b.Movi(rBin, hstBins)
		b.Label("zloop")
		b.Sw(kbuild.Zero, pH, 0)
		b.Addi(pH, pH, 4)
		b.AddiBr(rBin, rBin, -1, kbuild.CondNZ, "zloop")
	}
	b.Wait(bar, kbuild.R(11), kbuild.R(12), kbuild.R(13))
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)

	// update emits the per-element bin increment for the current mode.
	update := func(base string) {
		b.Lsr(rBin, rX, rShift)
		b.Lsli(rBin, rBin, 2)
		b.MoviSym(rTmp, base, 0)
		if !large {
			b.Add(rTmp, rTmp, rBin)
			b.Muli(rBin, kbuild.ID, hstBins*4)
			b.Add(rTmp, rTmp, rBin)
			b.Lw(rC, rTmp, 0)
			b.Addi(rC, rC, 1)
			b.Sw(rC, rTmp, 0)
			return
		}
		b.Add(rTmp, rTmp, rBin)
		b.AcquireSpin(lock)
		b.Lw(rC, rTmp, 0)
		b.Addi(rC, rC, 1)
		b.Sw(rC, rTmp, 0)
		b.Release(lock)
	}
	target := hist
	if !large {
		target = priv
	}

	switch mode {
	case config.ModeScratchpad:
		buf := b.Static("buf", 16*hstChunkElems*4, 8)
		pBuf, rElems, rBytes, rMram := kbuild.R(14), kbuild.R(15), kbuild.R(16), kbuild.R(17)
		pX, pEndW := kbuild.R(18), kbuild.R(19)
		b.MoviSym(pBuf, buf, 0)
		b.Muli(rTmp, kbuild.ID, hstChunkElems*4)
		b.Add(pBuf, pBuf, rTmp)
		b.Label("chunk")
		b.Jge(rStart, rEnd, "merge")
		b.Sub(rElems, rEnd, rStart)
		b.Jlti(rElems, hstChunkElems, "sized")
		b.Movi(rElems, hstChunkElems)
		b.Label("sized")
		b.Lsli(rBytes, rElems, 2)
		b.Lsli(rMram, rStart, 2)
		b.Add(rMram, rA, rMram)
		b.Ldma(pBuf, rMram, rBytes)
		b.Mov(pX, pBuf)
		b.Add(pEndW, pBuf, rBytes)
		b.Label("inner")
		b.Lw(rX, pX, 0)
		update(target)
		b.Addi(pX, pX, 4)
		b.Jlt(pX, pEndW, "inner")
		b.Add(rStart, rStart, rElems)
		b.Jump("chunk")

	case config.ModeCache:
		pX, pEndW := kbuild.R(14), kbuild.R(15)
		b.Lsli(rTmp, rStart, 2)
		b.Add(pX, rA, rTmp)
		b.Lsli(rTmp, rEnd, 2)
		b.Add(pEndW, rA, rTmp)
		b.Label("loop")
		b.Jge(pX, pEndW, "merge")
		b.Lw(rX, pX, 0)
		update(target)
		b.Addi(pX, pX, 4)
		b.Jump("loop")

	default:
		return nil, fmt.Errorf("hst: unsupported mode %v", mode)
	}

	// Merge + writeback.
	b.Label("merge")
	b.Wait(bar, kbuild.R(11), kbuild.R(12), kbuild.R(13))
	rBs, rBe := kbuild.R(11), kbuild.R(12)
	if large {
		// Tasklet 0 ships the shared histogram out.
		b.Jnei(kbuild.ID, 0, "done")
		if mode == config.ModeScratchpad {
			b.MoviSym(pH, hist, 0)
			b.Sdmai(pH, rOut, hstBins*4)
		} else {
			b.MoviSym(pH, hist, 0)
			b.Movi(rBin, hstBins)
			b.Label("out")
			b.Lw(rX, pH, 0)
			b.Sw(rX, rOut, 0)
			b.Addi(pH, pH, 4)
			b.Addi(rOut, rOut, 4)
			b.AddiBr(rBin, rBin, -1, kbuild.CondNZ, "out")
		}
		b.Label("done")
		b.Stop()
	} else {
		// Each tasklet reduces a slice of bins across all private copies and
		// writes that slice out.
		b.Movi(rTmp, hstBins)
		b.TaskletRangeAligned(rBs, rBe, rTmp, rBin, 2)
		b.Label("mloop")
		b.Jge(rBs, rBe, "ship")
		b.MoviSym(rTmp, priv, 0)
		b.Lsli(rBin, rBs, 2)
		b.Add(rTmp, rTmp, rBin)
		b.Movi(rC, 0)
		b.Movi(rX, 0)
		b.Label("tsum")
		b.Lw(pX16, rTmp, 0)
		b.Add(rC, rC, pX16)
		b.Movi(pEndW16, hstBins*4)
		b.Add(rTmp, rTmp, pEndW16)
		b.Addi(rX, rX, 1)
		b.Jlt(rX, kbuild.NTH, "tsum")
		b.MoviSym(rTmp, hist, 0)
		b.Lsli(rBin, rBs, 2)
		b.Add(rTmp, rTmp, rBin)
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
			b.Lsli(rBytes16, rTmp, 2)
			b.MoviSym(pH, hist, 0)
			b.Lsli(rBin, rBs, 2)
			b.Add(pH, pH, rBin)
			b.Add(rOut, rOut, rBin)
			b.Sdma(pH, rOut, rBytes16)
		} else {
			b.MoviSym(pH, hist, 0)
			b.Lsli(rBin, rBs, 2)
			b.Add(pH, pH, rBin)
			b.Add(rOut, rOut, rBin)
			b.Label("cship")
			b.Lw(rX, pH, 0)
			b.Sw(rX, rOut, 0)
			b.Addi(pH, pH, 4)
			b.Addi(rOut, rOut, 4)
			b.AddiBr(rTmp, rTmp, -1, kbuild.CondNZ, "cship")
		}
		b.Label("done")
		b.Stop()
	}
	return b.Build()
}

// Register aliases used by the HST-S merge epilogue (reusing the staging
// registers that are dead after the scan loop).
var (
	pX16     = kbuild.R(18)
	pEndW16  = kbuild.R(19)
	rBytes16 = kbuild.R(16)
)

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
