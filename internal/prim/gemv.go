package prim

import (
	"context"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// GEMV: dense matrix-vector multiply, the machine-learning primitive the
// paper's SIMT case study (Fig 11) is built around. The scratchpad variant
// stages x once (tasklet 0 + barrier) and streams rows by DMA; the SIMT
// variant distributes a row's dot product across the lanes of a warp so
// consecutive lanes touch consecutive addresses — the pattern the address
// coalescer ("AC") exploits.

// buildGEMVKernel lowers y = (relu? relu(A.x)>>6 : A.x) for any mode. MLP
// reuses it with relu=true as its per-layer kernel.
func buildGEMVKernel(mode config.Mode, name string, relu bool) (*linker.Object, error) {
	b := kbuild.New(name + "-" + mode.String())
	rA, rX, rY, rM, rN := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4)
	b.LoadArgs(0, rA, rX, rY, rM, rN)

	// applyAct optionally applies relu + >>6 quantization to acc.
	applyAct := func(acc kbuild.Reg) {
		if !relu {
			return
		}
		pos := b.Gensym("relu")
		b.Jgei(acc, 0, pos)
		b.Movi(acc, 0)
		b.Label(pos)
		b.Asri(acc, acc, 6)
	}

	switch mode {
	case config.ModeScratchpad:
		// Row staging is 1KB per tasklet (supports N <= 256 columns), keeping
		// statics + 16 tasklet stacks inside the 64KB WRAM.
		xbuf := b.Static("xbuf", 2048, 8)
		rowbuf := b.TaskletStatic("rowbuf", 1024)
		ybuf := b.TaskletStatic("ybuf", 32*4)
		bar := b.NewBarrier("bar")
		rs, re, rTmp := kbuild.R(5), kbuild.R(6), kbuild.R(7)
		rN4, pXbuf, pRow, pYbuf := kbuild.R(8), kbuild.R(9), kbuild.R(10), kbuild.R(11)
		rRow, rYCnt, rFlush, acc := kbuild.R(12), kbuild.R(13), kbuild.R(14), kbuild.R(15)
		pa, px, pend, va, vx, prod := kbuild.R(16), kbuild.R(17), kbuild.R(18), kbuild.R(19), kbuild.R(20), kbuild.R(21)

		b.Lsli(rN4, rN, 2)
		// Tasklet 0 stages x; everyone waits.
		b.Jnei(kbuild.ID, 0, "xwait")
		b.MoviSym(pXbuf, xbuf, 0)
		b.Ldma(pXbuf, rX, rN4)
		b.Label("xwait")
		b.Wait(bar, kbuild.R(9), kbuild.R(10), kbuild.R(11))

		b.MoviSym(pXbuf, xbuf, 0)
		b.TaskletPtr(pRow, rowbuf, 1024, rTmp)
		b.TaskletPtr(pYbuf, ybuf, 32*4, rTmp)

		b.TaskletRangeAligned(rs, re, rM, rTmp, 2)
		b.Mov(rRow, rs)
		b.Mov(rFlush, rs)
		b.Movi(rYCnt, 0)
		b.Label("rowloop")
		b.Jge(rRow, re, "tail")
		b.Mul(rTmp, rRow, rN4)
		b.Add(rTmp, rA, rTmp)
		b.Ldma(pRow, rTmp, rN4)
		b.Movi(acc, 0)
		b.Mov(pa, pRow)
		b.Mov(px, pXbuf)
		b.Add(pend, pa, rN4)
		b.Label("dot")
		b.Lw(va, pa, 0)
		b.Lw(vx, px, 0)
		b.Mul(prod, va, vx)
		b.Add(acc, acc, prod)
		b.Addi(pa, pa, 4)
		b.Addi(px, px, 4)
		b.Jlt(pa, pend, "dot")
		applyAct(acc)
		// Buffer y[row]; flush every 32 rows (the buffer pointer is resident).
		b.PushResult(kbuild.ResultBuffer{Acc: acc, Cnt: rYCnt, Row: rRow, Flush: rFlush, Out: rY, N: 32,
			Buf: func(_, _ kbuild.Reg) kbuild.Reg { return pYbuf }}, rTmp, rTmp, rTmp, "rowloop")
		b.Label("tail")
		b.Jeqi(rYCnt, 0, "done")
		b.Lsli(va, rYCnt, 2)
		b.Index(rTmp, rY, rFlush, 2)
		b.Sdma(pYbuf, rTmp, va)
		b.Label("done")
		b.Stop()

	case config.ModeCache:
		rs, re, rTmp := kbuild.R(5), kbuild.R(6), kbuild.R(7)
		rN4, rRow, acc := kbuild.R(8), kbuild.R(9), kbuild.R(10)
		pa, px, pend, va, vx, prod, pw := kbuild.R(11), kbuild.R(12), kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16), kbuild.R(17)
		b.Lsli(rN4, rN, 2)
		b.TaskletRangeAligned(rs, re, rM, rTmp, 2)
		b.Mov(rRow, rs)
		b.Label("rowloop")
		b.Jge(rRow, re, "done")
		b.Mul(rTmp, rRow, rN4)
		b.Add(pa, rA, rTmp)
		b.Mov(px, rX)
		b.Add(pend, pa, rN4)
		b.Movi(acc, 0)
		b.Label("dot")
		b.Lw(va, pa, 0)
		b.Lw(vx, px, 0)
		b.Mul(prod, va, vx)
		b.Add(acc, acc, prod)
		b.Addi(pa, pa, 4)
		b.Addi(px, px, 4)
		b.Jlt(pa, pend, "dot")
		applyAct(acc)
		b.IndexVia(pw, rY, rRow, 2, rTmp)
		b.Sw(acc, pw, 0)
		b.Addi(rRow, rRow, 1)
		b.Jump("rowloop")
		b.Label("done")
		b.Stop()

	case config.ModeSIMT:
		// Lane-parallel dot product: lane l of a warp accumulates elements
		// l, l+W, ...; lane 0 reduces the warp's partials from WRAM and
		// stores y[row]. A and x are read directly from MRAM (the coalescer
		// datapath of Fig 11(a)).
		pbuf := b.Static("pbuf", 512*4, 8)
		rW, rNW := kbuild.R(5), kbuild.R(6)
		rWarp, rLane, rRow, rK, acc := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10), kbuild.R(11)
		t, t2, va, vx := kbuild.R(12), kbuild.R(13), kbuild.R(14), kbuild.R(15)
		b.LoadArgs(5, rW, rNW)
		b.Div(rWarp, kbuild.ID, rW)
		b.Rem(rLane, kbuild.ID, rW)
		b.Mov(rRow, rWarp)
		b.Label("rowloop")
		b.Jge(rRow, rM, "fin")
		b.Movi(acc, 0)
		b.Mov(rK, rLane)
		b.Label("dot")
		b.Jge(rK, rN, "reduce")
		b.Mul(t, rRow, rN)
		b.Add(t, t, rK)
		b.Index(t, rA, t, 2)
		b.Lw(va, t, 0) // A[row*N+k] via the coalescer
		b.Index(t2, rX, rK, 2)
		b.Lw(vx, t2, 0) // x[k] via the coalescer
		b.Mul(t, va, vx)
		b.Add(acc, acc, t)
		b.Add(rK, rK, rW)
		b.Jump("dot")
		b.Label("reduce")
		// Lane-halving tree reduction through WRAM: every step, lanes below
		// the offset pull their partner's partial; lockstep execution makes
		// the store-then-load sequence race-free within the warp.
		b.TaskletSlot(t, pbuf, 2, t2) // &pbuf[ID]
		b.Lsri(rK, rW, 1)
		b.Label("tree")
		b.Jeqi(rK, 0, "treedone")
		b.Sw(acc, t, 0)
		b.Jge(rLane, rK, "treenext")
		b.Index(t2, t, rK, 2)
		b.Lw(va, t2, 0)
		b.Add(acc, acc, va)
		b.Label("treenext")
		b.Lsri(rK, rK, 1)
		b.Jump("tree")
		b.Label("treedone")
		b.Jnei(rLane, 0, "skipsum")
		b.Index(t, rY, rRow, 2)
		b.Sw(acc, t, 0) // y[row] direct store
		b.Label("skipsum")
		b.Add(rRow, rRow, rNW)
		b.Jump("rowloop")
		b.Label("fin")
		b.Stop()
	}
	return b.Build()
}

func runGEMV(ctx context.Context, x *xfer, p Params) error {
	m, n := p.M, p.N
	a := randI32s(m*n, 64, p.Seed)
	v := randI32s(n, 64, p.Seed+1)
	want := x.ints(m)
	for r := 0; r < m; r++ {
		var acc int32
		for j := 0; j < n; j++ {
			acc += a[r*n+j] * v[j]
		}
		want[r] = acc
	}

	slices := ranges(m, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	cfg := x.sys.Config()
	for d, r := range slices {
		var bank mram
		rows := r[1] - r[0]
		ra, rv := bank.words(rows*n), bank.words(n)
		outs[d] = bank.words(rows)
		x.put(d, ra, a[r[0]*n:r[1]*n])
		x.put(d, rv, v)
		args := []uint32{ra.addr(), rv.addr(), outs[d].addr(), uint32(rows), uint32(n)}
		if cfg.Mode == config.ModeSIMT {
			w := cfg.SIMTWidth
			args = append(args, uint32(w), uint32((cfg.NumTasklets+w-1)/w))
		}
		x.args(d, args...)
	}
	x.launch(ctx, host.PhaseOutput)
	return checkI32s("GEMV", x.gather(outs), want)
}
