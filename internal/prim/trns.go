package prim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// TRNS: out-of-place matrix transpose over 4x4 tiles pulled from a shared,
// mutex-guarded work queue. The fine tile granularity means tasklets hammer
// the queue lock, reproducing the synchronization-heavy instruction mix the
// paper reports for TRNS (Fig 9), on top of the strided DMA traffic.

const trnsTile = 4

func buildTRNS(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("trns-" + mode.String())
	// args: 0=in 1=out 2=M(rows) 3=N(cols); M,N multiples of 4.
	rIn, rOut, rM, rN := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rTPR, rTiles, rT, rI0, rJ0, rTmp := kbuild.R(4), kbuild.R(5), kbuild.R(6), kbuild.R(7), kbuild.R(8), kbuild.R(9)
	ctr := b.Static("ctr", 8, 8)
	lock := b.AllocLock()
	b.LoadArgs(0, rIn, rOut, rM, rN)
	b.Lsri(rTPR, rN, 2) // tiles per row
	b.Lsri(rTiles, rM, 2)
	b.Mul(rTiles, rTiles, rTPR)

	// nextTile opens the work loop: t = ctr++ under the mutex (the shared
	// work queue), done when the tiles ran out, else (i0, j0) = t's origin.
	nextTile := func() {
		b.Label("work")
		b.MoviSym(rTmp, ctr, 0)
		b.AcquireSpin(lock)
		b.Lw(rT, rTmp, 0)
		b.Addi(kbuild.R(10), rT, 1)
		b.Sw(kbuild.R(10), rTmp, 0)
		b.Release(lock)
		b.Jge(rT, rTiles, "done")
		b.Div(rI0, rT, rTPR)
		b.Rem(rJ0, rT, rTPR)
		b.Lsli(rI0, rI0, 2)
		b.Lsli(rJ0, rJ0, 2)
	}

	switch mode {
	case config.ModeScratchpad:
		tile := b.TaskletStatic("tile", trnsTile*trnsTile*4)
		tileT := b.TaskletStatic("tileT", trnsTile*trnsTile*4)
		pT, pTT, rAddr, rV := kbuild.R(11), kbuild.R(12), kbuild.R(13), kbuild.R(14)
		rRow := kbuild.R(15)
		b.TaskletPtr(pT, tile, trnsTile*trnsTile*4, rTmp)
		b.TaskletPtr(pTT, tileT, trnsTile*trnsTile*4, rTmp)

		nextTile()
		// Stage the 4 tile rows (16B each).
		for r := int32(0); r < trnsTile; r++ {
			b.Addi(rRow, rI0, r)
			b.Mul(rAddr, rRow, rN)
			b.Add(rAddr, rAddr, rJ0)
			b.Index(rAddr, rIn, rAddr, 2)
			if r > 0 {
				b.Addi(rV, pT, r*trnsTile*4)
				b.Ldmai(rV, rAddr, trnsTile*4)
			} else {
				b.Ldmai(pT, rAddr, trnsTile*4)
			}
		}
		// Transpose within WRAM (fully unrolled).
		for r := int32(0); r < trnsTile; r++ {
			for c := int32(0); c < trnsTile; c++ {
				b.Lw(rV, pT, (r*trnsTile+c)*4)
				b.Sw(rV, pTT, (c*trnsTile+r)*4)
			}
		}
		// Store the 4 transposed rows (columns of the source).
		for c := int32(0); c < trnsTile; c++ {
			b.Addi(rRow, rJ0, c)
			b.Mul(rAddr, rRow, rM)
			b.Add(rAddr, rAddr, rI0)
			b.Index(rAddr, rOut, rAddr, 2)
			if c > 0 {
				b.Addi(rV, pTT, c*trnsTile*4)
				b.Sdmai(rV, rAddr, trnsTile*4)
			} else {
				b.Sdmai(pTT, rAddr, trnsTile*4)
			}
		}

	case config.ModeCache:
		rAddr, rV, rRow, rSrc := kbuild.R(11), kbuild.R(12), kbuild.R(13), kbuild.R(14)
		nextTile()
		for r := int32(0); r < trnsTile; r++ {
			for c := int32(0); c < trnsTile; c++ {
				b.Addi(rRow, rI0, r)
				b.Mul(rSrc, rRow, rN)
				b.Add(rSrc, rSrc, rJ0)
				b.Addi(rSrc, rSrc, c)
				b.Index(rSrc, rIn, rSrc, 2)
				b.Lw(rV, rSrc, 0)
				b.Addi(rRow, rJ0, c)
				b.Mul(rAddr, rRow, rM)
				b.Add(rAddr, rAddr, rI0)
				b.Addi(rAddr, rAddr, r)
				b.Index(rAddr, rOut, rAddr, 2)
				b.Sw(rV, rAddr, 0)
			}
		}
	}
	b.Jump("work")
	b.Label("done")
	b.Stop()
	return b.Build()
}

func runTRNS(ctx context.Context, x *xfer, p Params) error {
	m, n := p.M, p.N
	a := randI32s(m*n, 1<<16, p.Seed)

	// Bands of rows per DPU; each DPU locally transposes its band into an
	// N x bandRows matrix, and the host reassembles columns. A DPU left
	// without rows is told so (zero tiles, both regions at offset 0).
	slices := ranges(m, x.sys.NumDPUs(), trnsTile)
	outs := make([]region, len(slices))
	for d, sl := range slices {
		var bank mram
		rows := sl[1] - sl[0]
		in := bank.words(rows * n)
		outs[d] = bank.words(rows * n)
		x.put(d, in, a[sl[0]*n:sl[1]*n])
		x.args(d, in.addr(), outs[d].addr(), uint32(rows), uint32(n))
	}
	x.launch(ctx, host.PhaseOutput)
	outFull := x.ints(n * m)
	for d, sl := range slices {
		rows := sl[1] - sl[0]
		local := x.get(d, outs[d]) // n x rows, row-major
		for j := 0; j < n; j++ {
			copy(outFull[j*m+sl[0]:j*m+sl[1]], local[j*rows:(j+1)*rows])
		}
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			if outFull[j*m+i] != a[i*n+j] {
				return fmt.Errorf("TRNS: out[%d][%d] = %d, want %d", j, i, outFull[j*m+i], a[i*n+j])
			}
		}
	}
	return nil
}
