package prim

import (
	"context"
	"math/rand"
	"sort"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// BS: batched lower-bound binary search over a sorted MRAM array. The
// scratchpad variant stages a fixed 256B block per probe — the static
// overfetch the paper's Fig 16 blames for BS's 5.1x extra DRAM traffic vs
// an on-demand cache, which fetches only the 64B line each probe touches.
// BS is the suite's memory-bound, low-TLP workload (Fig 5/6/7).

const (
	bsProbeBytes   = 256
	bsChunkQueries = 64 // queries per staging chunk
)

func buildBS(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("bs-" + mode.String())
	rA, rN, rQ, rNQ, rOut := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4)
	rQS, rQE, rTmp := kbuild.R(5), kbuild.R(6), kbuild.R(7)
	b.LoadArgs(0, rA, rN, rQ, rNQ, rOut)
	b.TaskletRangeAligned(rQS, rQE, rNQ, rTmp, 2)

	rLo, rHi, rMid, rVal, rQv := kbuild.R(8), kbuild.R(9), kbuild.R(10), kbuild.R(11), kbuild.R(12)

	switch mode {
	case config.ModeScratchpad:
		qbuf := b.TaskletStatic("qbuf", bsChunkQueries*4)
		pbuf := b.TaskletStatic("pbuf", bsProbeBytes)
		obuf := b.TaskletStatic("obuf", bsChunkQueries*4)
		pQ, pP, pO := kbuild.R(13), kbuild.R(14), kbuild.R(15)
		rChunk, rQi, rBytes, rBlk := kbuild.R(16), kbuild.R(17), kbuild.R(18), kbuild.R(19)
		rCurBlk := kbuild.R(20)
		b.TaskletPtr(pQ, qbuf, bsChunkQueries*4, rTmp)
		b.TaskletPtr(pP, pbuf, bsProbeBytes, rTmp)
		b.TaskletPtr(pO, obuf, bsChunkQueries*4, rTmp)

		b.ChunkLoop(rQS, rQE, rChunk, bsChunkQueries, func() {
			b.StageWords(pQ, rQ, rQS, rChunk, rBytes, rTmp)
			b.Movi(rQi, 0)
			b.Label("query")
			b.Index(rTmp, pQ, rQi, 2)
			b.Lw(rQv, rTmp, 0)
			// Lower bound over [0, n).
			b.Movi(rLo, 0)
			b.Mov(rHi, rN)
			b.Movi(rCurBlk, -1) // no block staged yet
			b.Label("probe")
			b.Jge(rLo, rHi, "found")
			b.Add(rMid, rLo, rHi)
			b.Lsri(rMid, rMid, 1)
			// Stage the fixed 256B block containing a[mid] (static overfetch),
			// unless the previous probe already staged it — once the search
			// range narrows into one block, the remaining probes run from WRAM
			// (PrIM's BS does the same block-local finish).
			b.Lsli(rBlk, rMid, 2)
			b.Andi(rBlk, rBlk, -bsProbeBytes)
			b.Jeq(rBlk, rCurBlk, "staged")
			b.Add(rTmp, rA, rBlk)
			b.Ldmai(pP, rTmp, bsProbeBytes)
			b.Mov(rCurBlk, rBlk)
			b.Label("staged")
			b.Lsli(rTmp, rMid, 2)
			b.Sub(rTmp, rTmp, rBlk)
			b.Add(rTmp, pP, rTmp)
			b.Lw(rVal, rTmp, 0)
			b.Jge(rVal, rQv, "goleft")
			b.Addi(rLo, rMid, 1)
			b.Jump("probe")
			b.Label("goleft")
			b.Mov(rHi, rMid)
			b.Jump("probe")
			b.Label("found")
			b.Index(rTmp, pO, rQi, 2)
			b.Sw(rLo, rTmp, 0)
			b.Addi(rQi, rQi, 1)
			b.Jlt(rQi, rChunk, "query")
			// Flush results for this chunk.
			b.Index(rTmp, rOut, rQS, 2)
			b.Sdma(pO, rTmp, rBytes)
		}, nil)
		b.Stop()

	case config.ModeCache:
		pQ, pO := kbuild.R(13), kbuild.R(14)
		b.IndexVia(pQ, rQ, rQS, 2, rTmp)
		b.Add(pO, rOut, rTmp)
		b.Label("query")
		b.Jge(rQS, rQE, "done")
		b.Lw(rQv, pQ, 0)
		b.Movi(rLo, 0)
		b.Mov(rHi, rN)
		b.Label("probe")
		b.Jge(rLo, rHi, "found")
		b.Add(rMid, rLo, rHi)
		b.Lsri(rMid, rMid, 1)
		b.Index(rTmp, rA, rMid, 2)
		b.Lw(rVal, rTmp, 0) // on-demand 64B line fill
		b.Jge(rVal, rQv, "goleft")
		b.Addi(rLo, rMid, 1)
		b.Jump("probe")
		b.Label("goleft")
		b.Mov(rHi, rMid)
		b.Jump("probe")
		b.Label("found")
		b.Sw(rLo, pO, 0)
		b.Addi(pQ, pQ, 4)
		b.Addi(pO, pO, 4)
		b.Addi(rQS, rQS, 1)
		b.Jump("query")
		b.Label("done")
		b.Stop()
	}
	return b.Build()
}

func runBS(ctx context.Context, x *xfer, p Params) error {
	n, nq := p.N, p.Queries
	// Sorted array with strictly increasing values; queries drawn from it.
	a := x.ints(n)
	r := rand.New(rand.NewSource(p.Seed))
	v := int32(0)
	for i := range a {
		v += 1 + r.Int31n(4)
		a[i] = v
	}
	q, want := x.ints(nq), x.ints(nq)
	for i := range q {
		idx := r.Intn(n)
		q[i] = a[idx]
		want[i] = int32(sort.Search(n, func(j int) bool { return a[j] >= q[i] }))
	}

	// The array is replicated on every DPU (CPU->DPU volume grows with DPU
	// count — the paper's reason BS scales sub-linearly); queries partition.
	slices := ranges(nq, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	for d, sl := range slices {
		var m mram
		cnt := sl[1] - sl[0]
		ra, rq := m.words(n), m.words(cnt)
		outs[d] = m.words(cnt)
		x.put(d, ra, a)
		x.put(d, rq, q[sl[0]:sl[1]])
		x.args(d, ra.addr(), uint32(n), rq.addr(), uint32(cnt), outs[d].addr())
	}
	x.launch(ctx, host.PhaseOutput)
	return checkI32s("BS", x.gather(outs), want)
}
