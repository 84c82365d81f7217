package prim

import (
	"context"
	"fmt"
	"math"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// TS: time-series similarity search (SCRIMP-flavoured): for each query
// window, slide over the series computing the squared-difference distance
// and track the minimum and its position. Compute-bound and multiply-heavy
// (Fig 5/9), with tasklets partitioning window positions and queries staged
// once in WRAM.

const (
	tsChunkElems = 120 // series chunk per staging step (plus window overlap)
	tsMaxWindow  = 8
	tsMaxQueries = 64
)

func buildTS(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("ts-" + mode.String())
	// args: 0=series 1=n 2=queries 3=nq 4=window 5=out (per tasklet x query
	// [dist,idx] pairs at out + (ID*nq + q)*8)
	rS, rN, rQ, rNQ, rM, rOut := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4), kbuild.R(5)
	rWS, rWE, rTmp := kbuild.R(6), kbuild.R(7), kbuild.R(8)
	best := b.TaskletStatic("best", tsMaxQueries*8)
	b.LoadArgs(0, rS, rN, rQ, rNQ, rM, rOut)
	// DPUs handed an empty series slice (n < m) bail out immediately.
	b.Jge(rN, rM, "active")
	b.Stop()
	b.Label("active")

	// nWindows = n - m + 1; partition window starts.
	b.Sub(rTmp, rN, rM)
	b.Addi(rTmp, rTmp, 1)
	b.TaskletRangeAligned(rWS, rWE, rTmp, kbuild.R(9), 2)

	// Initialize my best[] to +inf.
	pB, rQi := kbuild.R(9), kbuild.R(10)
	b.TaskletPtr(pB, best, tsMaxQueries*8, rTmp)
	b.Movi(rQi, 0)
	b.Movi(rTmp, math.MaxInt32)
	b.Label("init")
	b.Jge(rQi, rNQ, "init_done")
	b.Index(kbuild.R(11), pB, rQi, 3)
	b.Sw(rTmp, kbuild.R(11), 0)
	b.Sw(kbuild.Zero, kbuild.R(11), 4)
	b.Addi(rQi, rQi, 1)
	b.Jump("init")
	b.Label("init_done")

	switch mode {
	case config.ModeScratchpad:
		qbuf := b.Static("qbuf", tsMaxQueries*tsMaxWindow*4, 8)
		sbuf := b.TaskletStatic("sbuf", (tsChunkElems+tsMaxWindow)*4)
		bar := b.NewBarrier("bar")
		// Tasklet 0 stages all queries once.
		b.Jnei(kbuild.ID, 0, "qwait")
		b.Mul(rTmp, rNQ, rM)
		b.Lsli(rTmp, rTmp, 2)
		b.MoviSym(kbuild.R(11), qbuf, 0)
		b.Ldma(kbuild.R(11), rQ, rTmp)
		b.Label("qwait")
		b.Wait(bar, kbuild.R(11), kbuild.R(12), kbuild.R(13))

		pSb := kbuild.R(11)
		rCur, rElems, rBytes := kbuild.R(12), kbuild.R(13), kbuild.R(14)
		rW, rDist, pQw, pSw, rJ := kbuild.R(15), kbuild.R(16), kbuild.R(17), kbuild.R(18), kbuild.R(19)
		rD, rSv, rBest := kbuild.R(20), kbuild.R(21), kbuild.R(22)
		b.TaskletPtr(pSb, sbuf, (tsChunkElems+tsMaxWindow)*4, rTmp)

		b.Mov(rCur, rWS)
		b.ChunkLoop(rCur, rWE, rElems, tsChunkElems, func() {
			// Stage elems + window series values (rounded up to even).
			b.Add(rBytes, rElems, rM)
			b.Addi(rBytes, rBytes, 1)
			b.Andi(rBytes, rBytes, -2)
			b.Lsli(rBytes, rBytes, 2)
			b.Index(rTmp, rS, rCur, 2)
			b.Ldma(pSb, rTmp, rBytes)
			// for q in [0,nq): for w in [0,elems): dist over window.
			b.Movi(rQi, 0)
			b.Label("qloop")
			b.Jge(rQi, rNQ, "chunk_next")
			b.Mul(pQw, rQi, rM)
			b.Lsli(pQw, pQw, 2)
			b.MoviSym(rTmp, qbuf, 0)
			b.Add(pQw, rTmp, pQw) // &q[qi][0]
			b.Movi(rW, 0)
			b.Label("wloop")
			b.Jge(rW, rElems, "qnext")
			b.Movi(rDist, 0)
			b.Index(pSw, pSb, rW, 2) // &s[w]
			b.Movi(rJ, 0)
			b.Label("jloop")
			b.Lw(rSv, pSw, 0)
			b.Index(rD, pQw, rJ, 2)
			b.Lw(rD, rD, 0)
			b.Sub(rD, rSv, rD)
			b.Mul(rD, rD, rD)
			b.Add(rDist, rDist, rD)
			b.Addi(pSw, pSw, 4)
			b.Addi(rJ, rJ, 1)
			b.Jlt(rJ, rM, "jloop")
			// Track min.
			b.Index(rTmp, pB, rQi, 3)
			b.Lw(rBest, rTmp, 0)
			b.Jge(rDist, rBest, "wnext")
			b.Sw(rDist, rTmp, 0)
			b.Add(rSv, rCur, rW)
			b.Sw(rSv, rTmp, 4)
			b.Label("wnext")
			b.Addi(rW, rW, 1)
			b.Jump("wloop")
			b.Label("qnext")
			b.Addi(rQi, rQi, 1)
			b.Jump("qloop")
			b.Label("chunk_next")
		}, nil)
		// Publish my per-query bests.
		b.Mul(rTmp, rNQ, kbuild.ID)
		b.Index(rTmp, rOut, rTmp, 3)
		b.Lsli(rBytes, rNQ, 3)
		b.Sdma(pB, rTmp, rBytes)
		b.Stop()

	case config.ModeCache:
		rCur := kbuild.R(11)
		rW, rDist, pQw, pSw, rJ := kbuild.R(12), kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16)
		rD, rSv, rBest, pW := kbuild.R(17), kbuild.R(18), kbuild.R(19), kbuild.R(20)
		b.Mov(rCur, rWS)
		b.Label("wloop")
		b.Jge(rCur, rWE, "publish")
		b.Movi(rQi, 0)
		b.Label("qloop")
		b.Jge(rQi, rNQ, "wnext")
		b.Mul(pQw, rQi, rM)
		b.Index(pQw, rQ, pQw, 2)
		b.Index(pSw, rS, rCur, 2)
		b.Movi(rDist, 0)
		b.Movi(rJ, 0)
		b.Label("jloop")
		b.Lw(rSv, pSw, 0)
		b.Lw(rD, pQw, 0)
		b.Sub(rD, rSv, rD)
		b.Mul(rD, rD, rD)
		b.Add(rDist, rDist, rD)
		b.Addi(pSw, pSw, 4)
		b.Addi(pQw, pQw, 4)
		b.Addi(rJ, rJ, 1)
		b.Jlt(rJ, rM, "jloop")
		b.IndexVia(pW, pB, rQi, 3, rW)
		b.Lw(rBest, pW, 0)
		b.Jge(rDist, rBest, "qnext")
		b.Sw(rDist, pW, 0)
		b.Sw(rCur, pW, 4)
		b.Label("qnext")
		b.Addi(rQi, rQi, 1)
		b.Jump("qloop")
		b.Label("wnext")
		b.Addi(rCur, rCur, 1)
		b.Jump("wloop")
		b.Label("publish")
		// Direct stores of my per-query bests.
		b.Mul(rTmp, rNQ, kbuild.ID)
		b.Index(rTmp, rOut, rTmp, 3)
		b.Movi(rQi, 0)
		b.Label("pub")
		b.Jge(rQi, rNQ, "fin")
		b.IndexVia(pW, pB, rQi, 3, rW)
		b.Lw(rD, pW, 0)
		b.Sw(rD, rTmp, 0)
		b.Lw(rD, pW, 4)
		b.Sw(rD, rTmp, 4)
		b.Addi(rTmp, rTmp, 8)
		b.Addi(rQi, rQi, 1)
		b.Jump("pub")
		b.Label("fin")
		b.Stop()
	}
	return b.Build()
}

func runTS(ctx context.Context, x *xfer, p Params) error {
	n, nq, m := p.N, p.Queries, p.Window
	if nq > tsMaxQueries || m > tsMaxWindow {
		return fmt.Errorf("ts: params exceed kernel capacity")
	}
	s := randI32s(n, 64, p.Seed)
	q := randI32s(nq*m, 64, p.Seed+1)
	nw := n - m + 1
	nth := x.sys.Config().NumTasklets

	// The series is partitioned by window position across DPUs (with window
	// overlap); queries are replicated.
	slices := ranges(nw, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	for d, sl := range slices {
		var bank mram
		scnt := 0
		if sl[1] > sl[0] {
			scnt = sl[1] - sl[0] + m - 1
		}
		rs, rq := bank.words(scnt+1), bank.words(nq*m)
		outs[d] = bank.words(nth * nq * 2)
		x.put(d, rs, s[sl[0]:sl[0]+scnt])
		x.put(d, rq, q)
		// Kernel n' = local series length so nWindows' = wcnt.
		x.args(d, rs.addr(), uint32(scnt), rq.addr(), uint32(nq), uint32(m), outs[d].addr())
	}
	x.launch(ctx, host.PhaseOutput)

	// Merge per-tasklet per-DPU candidates: (dist, global index), preferring
	// smaller index on ties.
	type cand struct{ dist, idx int32 }
	bestOf := make([]cand, nq)
	for i := range bestOf {
		bestOf[i] = cand{math.MaxInt32, -1}
	}
	for d, sl := range slices {
		if sl[1] == sl[0] {
			continue
		}
		vals := x.get(d, outs[d])
		for t := 0; t < nth; t++ {
			for qi := 0; qi < nq; qi++ {
				dist := vals[(t*nq+qi)*2]
				idx := vals[(t*nq+qi)*2+1]
				if dist == math.MaxInt32 {
					continue
				}
				g := cand{dist, idx + int32(sl[0])}
				cur := bestOf[qi]
				if g.dist < cur.dist || (g.dist == cur.dist && g.idx < cur.idx) {
					bestOf[qi] = g
				}
			}
		}
	}

	// Golden.
	for qi := 0; qi < nq; qi++ {
		bd, bi := int32(math.MaxInt32), int32(-1)
		for w := 0; w < nw; w++ {
			var dist int32
			for j := 0; j < m; j++ {
				d := s[w+j] - q[qi*m+j]
				dist += d * d
			}
			if dist < bd {
				bd, bi = dist, int32(w)
			}
		}
		if bestOf[qi].dist != bd || bestOf[qi].idx != bi {
			return fmt.Errorf("TS: query %d best = (%d,%d), want (%d,%d)",
				qi, bestOf[qi].dist, bestOf[qi].idx, bd, bi)
		}
	}
	return nil
}
