package prim

import (
	"context"
	"math/rand"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// SpMV: CSR sparse matrix-vector multiply. Row ranges are partitioned over
// tasklets; column indices/values stream through WRAM in chunks while x is
// gathered with one small DMA per non-zero — the irregular access pattern
// that makes SpMV (with BS) the suite's memory-bound outlier in Fig 5/6.

func buildSpMV(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("spmv-" + mode.String())
	rRP, rCI, rVA, rX, rY, rM := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4), kbuild.R(5)
	rs, re, rTmp := kbuild.R(6), kbuild.R(7), kbuild.R(8)
	b.LoadArgs(0, rRP, rCI, rVA, rX, rY, rM)
	b.TaskletRangeAligned(rs, re, rM, rTmp, 2)

	rRow, rS, rE, acc := kbuild.R(9), kbuild.R(10), kbuild.R(11), kbuild.R(12)

	switch mode {
	case config.ModeScratchpad:
		rpb := b.TaskletStatic("rpb", 16)
		cbuf := b.TaskletStatic("cbuf", 512)
		vbuf := b.TaskletStatic("vbuf", 512)
		xb := b.TaskletStatic("xb", 8)
		ybuf := b.TaskletStatic("ybuf", 32*4)
		const segElemsMax = 128
		rCur, rSeg := kbuild.R(13), kbuild.R(14)
		p1, p2, c, v := kbuild.R(15), kbuild.R(16), kbuild.R(17), kbuild.R(18)
		pEnd, rYCnt, rFlush, pXB := kbuild.R(19), kbuild.R(20), kbuild.R(21), kbuild.R(22)

		b.TaskletSlot(pXB, xb, 3, rTmp)
		b.Mov(rRow, rs)
		b.Movi(rYCnt, 0)
		b.Mov(rFlush, rs)

		b.Label("rowloop")
		b.Jge(rRow, re, "tail")
		// Fetch rowptr[row], rowptr[row+1] with one aligned 16B stage.
		b.Andi(rTmp, rRow, -2)
		b.Index(rTmp, rRP, rTmp, 2)
		b.TaskletSlot(p1, rpb, 4, p2)
		b.Ldmai(p1, rTmp, 16)
		b.Andi(rTmp, rRow, 1)
		b.IndexVia(p1, p1, rTmp, 2, rTmp)
		b.Lw(rS, p1, 0)
		b.Lw(rE, p1, 4)
		b.Movi(acc, 0)
		b.Mov(rCur, rS)

		// The row's non-zeros in segments: the DMA window is widened to an
		// even start element, so the staging stays with this kernel.
		b.ChunkLoop(rCur, rE, rSeg, segElemsMax, func() {
			b.Andi(rTmp, rCur, -2) // aligned start element
			b.Sub(p1, rCur, rTmp)  // head skip (0/1)
			b.Add(p2, rSeg, p1)
			b.Addi(p2, p2, 1)
			b.Andi(p2, p2, -2)
			b.Lsli(p2, p2, 2) // fetch bytes
			b.Lsli(rTmp, rTmp, 2)
			// Stage colidx segment.
			b.TaskletPtr(c, cbuf, 512, v)
			b.Add(v, rCI, rTmp)
			b.Ldma(c, v, p2)
			// Stage vals segment.
			b.TaskletPtr(v, vbuf, 512, pEnd)
			b.Add(pEnd, rVA, rTmp)
			b.Ldma(v, pEnd, p2)
			// Cursors p1 = &col[head], p2 = &val[head]; pEnd bounds p1.
			b.IndexVia(p2, v, p1, 2, p1)
			b.TaskletPtr(v, cbuf, 512, pEnd)
			b.Add(p1, v, p1)
			b.Index(pEnd, p1, rSeg, 2)
		}, func(string) {
			b.Label("elem")
			b.Lw(c, p1, 0)
			b.Lw(v, p2, 0)
			// Gather x[c] with an aligned 8B DMA.
			b.Andi(rTmp, c, -2)
			b.Index(rTmp, rX, rTmp, 2)
			b.Ldmai(pXB, rTmp, 8)
			b.Andi(c, c, 1)
			b.Index(c, pXB, c, 2)
			b.Lw(c, c, 0)
			b.Mul(rTmp, v, c)
			b.Add(acc, acc, rTmp)
			b.Addi(p1, p1, 4)
			b.Addi(p2, p2, 4)
			b.Jlt(p1, pEnd, "elem")
		})

		// ybuf[yCnt] = acc; flush every 32 rows. No register is left to keep
		// the buffer pointer resident, so it is recomputed at each use.
		yPtr := func(p, tmp kbuild.Reg) kbuild.Reg {
			b.TaskletPtr(p, ybuf, 32*4, tmp)
			return p
		}
		b.PushResult(kbuild.ResultBuffer{Acc: acc, Cnt: rYCnt, Row: rRow, Flush: rFlush, Out: rY, N: 32,
			Buf: yPtr}, rTmp, rS, rE, "rowloop")

		b.Label("tail")
		b.Jeqi(rYCnt, 0, "done")
		b.Index(rTmp, rY, rFlush, 2)
		yPtr(rS, rE)
		b.Lsli(rE, rYCnt, 2)
		b.Sdma(rS, rTmp, rE)
		b.Label("done")
		b.Stop()

	case config.ModeCache:
		p1, p2, c, v, pEnd, pw := kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16), kbuild.R(17), kbuild.R(18)
		b.Mov(rRow, rs)
		b.Label("rowloop")
		b.Jge(rRow, re, "done")
		b.Index(rTmp, rRP, rRow, 2)
		b.Lw(rS, rTmp, 0)
		b.Lw(rE, rTmp, 4)
		b.Movi(acc, 0)
		b.IndexVia(p2, rVA, rS, 2, p1)
		b.Add(p1, rCI, p1)
		b.Sub(pEnd, rE, rS)
		b.Index(pEnd, p1, pEnd, 2)
		b.Label("elem")
		b.Jge(p1, pEnd, "rowdone")
		b.Lw(c, p1, 0)
		b.Lw(v, p2, 0)
		b.Index(c, rX, c, 2)
		b.Lw(c, c, 0)
		b.Mul(rTmp, v, c)
		b.Add(acc, acc, rTmp)
		b.Addi(p1, p1, 4)
		b.Addi(p2, p2, 4)
		b.Jump("elem")
		b.Label("rowdone")
		b.IndexVia(pw, rY, rRow, 2, rTmp)
		b.Sw(acc, pw, 0)
		b.Addi(rRow, rRow, 1)
		b.Jump("rowloop")
		b.Label("done")
		b.Stop()
	}
	return b.Build()
}

// csr holds a host-side CSR matrix.
type csr struct {
	m, n   int
	rowptr []int32
	colidx []int32
	vals   []int32
}

type csrKey struct {
	m, n, nnzPerRow int
	seed            int64
}

// genCSR builds an m x n sparse matrix with sorted rows of up to 2*nnzPerRow
// entries (memoized: read-only).
func genCSR(m, n, nnzPerRow int, seed int64) *csr {
	return memo(csrKey{m, n, nnzPerRow, seed}, func() *csr { return newCSR(m, n, nnzPerRow, seed) })
}

func newCSR(m, n, nnzPerRow int, seed int64) *csr {
	r := rand.New(rand.NewSource(seed))
	c := &csr{m: m, n: n, rowptr: make([]int32, m+1)}
	for row := 0; row < m; row++ {
		cnt := r.Intn(2*nnzPerRow + 1)
		cols := map[int32]bool{}
		for len(cols) < cnt {
			cols[r.Int31n(int32(n))] = true
		}
		sorted := make([]int32, 0, cnt)
		for col := range cols {
			sorted = append(sorted, col)
		}
		for i := 1; i < len(sorted); i++ {
			for j := i; j > 0 && sorted[j] < sorted[j-1]; j-- {
				sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
			}
		}
		for _, col := range sorted {
			c.colidx = append(c.colidx, col)
			c.vals = append(c.vals, 1+r.Int31n(16))
		}
		c.rowptr[row+1] = int32(len(c.colidx))
	}
	return c
}

// rebaseRows writes the row pointers of CSR rows [lo, hi) into rp relative to
// the slice's first entry, followed by one zero word (BFS stages it as
// padding), and returns the slice's bounds in colidx/vals. SpMV and BFS both
// hand each DPU a row slice this way.
func rebaseRows(rp, rowptr []int32, lo, hi int) (base, limit int32) {
	base, limit = rowptr[lo], rowptr[hi]
	for i := lo; i <= hi; i++ {
		rp[i-lo] = rowptr[i] - base
	}
	rp[hi-lo+1] = 0
	return base, limit
}

func runSpMV(ctx context.Context, x *xfer, p Params) error {
	mtx := genCSR(p.M, p.N, p.NNZPerRow, p.Seed)
	vec := randI32s(p.N, 64, p.Seed+1)
	want := x.ints(p.M)
	for row := 0; row < p.M; row++ {
		var acc int32
		for k := mtx.rowptr[row]; k < mtx.rowptr[row+1]; k++ {
			acc += mtx.vals[k] * vec[mtx.colidx[k]]
		}
		want[row] = acc
	}

	slices := ranges(p.M, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	rp := x.ints(slices[0][1] - slices[0][0] + 2)
	for d, sl := range slices {
		var bank mram
		rows := sl[1] - sl[0]
		base, limit := rebaseRows(rp, mtx.rowptr, sl[0], sl[1])
		nnz := int(limit - base)
		rrp, rci, rva, rx := bank.words(rows+2), bank.words(nnz), bank.words(nnz), bank.words(p.N)
		outs[d] = bank.words(rows)
		x.put(d, rrp, rp[:rows+1])
		x.put(d, rci, mtx.colidx[base:limit])
		x.put(d, rva, mtx.vals[base:limit])
		x.put(d, rx, vec)
		x.args(d, rrp.addr(), rci.addr(), rva.addr(), rx.addr(), outs[d].addr(), uint32(rows))
	}
	x.launch(ctx, host.PhaseOutput)
	return checkI32s("SpMV", x.gather(outs), want)
}
