package prim

import (
	"context"
	"fmt"
	"math/rand"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// BFS: level-synchronous breadth-first search over a CSR graph. Vertices
// are partitioned across DPUs; each level is a kernel launch. The host
// merges the per-DPU next-frontier bitmaps and re-broadcasts frontier +
// visited bitmaps every level, so communication grows with the DPU count —
// the paper's textbook sub-linear scaler (Fig 10).
//
// The scratchpad kernel works the way PrIM's does on real hardware: the
// frontier is staged in chunks, but adjacency lists, visited-bits and
// next-bits all live in MRAM and are touched through small DMAs, which is
// why BFS is the one workload whose instruction mix has more DMA than
// WRAM load/store instructions (Fig 9).

func buildBFS(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("bfs-" + mode.String())
	// args: 0=rowptr(local) 1=colidx(local) 2=frontier 3=visited 4=next
	//       5=vLo 6=vHi  (bitmaps are full-size; vertex range is owned)
	rRP, rCI, rFr, rVis, rNx := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3), kbuild.R(4)
	rVLo, rVHi := kbuild.R(5), kbuild.R(6)
	lock := b.AllocLock()
	b.LoadArgs(0, rRP, rCI, rFr, rVis, rNx, rVLo, rVHi)

	rS, rE, rTmp := kbuild.R(7), kbuild.R(8), kbuild.R(9)
	b.Sub(rTmp, rVHi, rVLo)
	b.TaskletRangeAligned(rS, rE, rTmp, kbuild.R(10), 64)

	switch mode {
	case config.ModeScratchpad:
		fbuf := b.TaskletStatic("fbuf", 256) // 64 frontier words per chunk
		wbuf := b.TaskletStatic("wbuf", 16)  // aligned RMW staging
		rCur, rWords, pF := kbuild.R(10), kbuild.R(11), kbuild.R(12)
		rFw, rBit, rV := kbuild.R(13), kbuild.R(14), kbuild.R(15)
		pFW, rWIdx, pWB := kbuild.R(16), kbuild.R(17), kbuild.R(18)

		b.TaskletSlot(pWB, wbuf, 4, rTmp)
		b.Mov(rCur, rS) // local vertex cursor (multiple of 64)

		b.Label("chunk")
		b.Jge(rCur, rE, "fin")
		// words this chunk: ceil(min(2048, e-cur)/32) rounded to even.
		b.ClampSub(rWords, rE, rCur, 2048)
		b.Addi(rWords, rWords, 31)
		b.Lsri(rWords, rWords, 5)
		b.Addi(rWords, rWords, 1)
		b.Andi(rWords, rWords, -2)
		// Stage frontier words for [vLo+cur, ...).
		b.TaskletPtr(pF, fbuf, 256, rTmp)
		b.Add(rTmp, rVLo, rCur)
		b.Lsri(rTmp, rTmp, 5)
		b.Index(rTmp, rFr, rTmp, 2)
		b.Lsli(rV, rWords, 2)
		b.Ldma(pF, rTmp, rV)
		// Scan the staged words.
		b.Movi(rWIdx, 0)
		b.Mov(pFW, pF)
		b.Label("words")
		b.Jge(rWIdx, rWords, "chunk_next")
		b.Lw(rFw, pFW, 0)
		b.Movi(rBit, 0)
		b.Label("bits")
		b.Jeqi(rFw, 0, "word_next")
		b.AndiBr(rTmp, rFw, 1, kbuild.CondZ, "bit_next")
		// v = cur + wIdx*32 + bit (local index); bail beyond my range.
		b.Lsli(rV, rWIdx, 5)
		b.Add(rV, rV, rCur)
		b.Add(rV, rV, rBit)
		b.Jge(rV, rE, "word_next")
		b.Call("visit")
		b.Label("bit_next")
		b.Lsri(rFw, rFw, 1)
		b.Addi(rBit, rBit, 1)
		b.Jump("bits")
		b.Label("word_next")
		b.Addi(rWIdx, rWIdx, 1)
		b.Addi(pFW, pFW, 4)
		b.Jump("words")
		b.Label("chunk_next")
		b.Movi(rTmp, 2048)
		b.Add(rCur, rCur, rTmp)
		b.Jump("chunk")
		b.Label("fin")
		b.Stop()

		// visit(v in rV): expand the local vertex's adjacency. Clobbers
		// r19..r22 and rTmp; preserves the scan state.
		rK, rKE, rU, rT2 := kbuild.R(19), kbuild.R(20), kbuild.R(21), kbuild.R(22)
		b.Label("visit")
		// rowptr[v], rowptr[v+1] via an aligned 16B stage into wbuf.
		b.Andi(rTmp, rV, -2)
		b.Index(rTmp, rRP, rTmp, 2)
		b.Ldmai(pWB, rTmp, 16)
		b.Andi(rTmp, rV, 1)
		b.Index(rTmp, pWB, rTmp, 2)
		b.Lw(rK, rTmp, 0)
		b.Lw(rKE, rTmp, 4)
		b.Label("edges")
		b.Jge(rK, rKE, "visit_done")
		// u = colidx[k] via an aligned 8B stage.
		b.Andi(rTmp, rK, -2)
		b.Index(rTmp, rCI, rTmp, 2)
		b.Ldmai(pWB, rTmp, 8)
		b.Andi(rTmp, rK, 1)
		b.Index(rTmp, pWB, rTmp, 2)
		b.Lw(rU, rTmp, 0)
		// visited probe: 8B DMA of the word holding bit u.
		b.Lsri(rTmp, rU, 6)
		b.Index(rTmp, rVis, rTmp, 3)
		b.Ldmai(pWB, rTmp, 8)
		b.Lsri(rTmp, rU, 5)
		b.Andi(rTmp, rTmp, 1)
		b.Index(rTmp, pWB, rTmp, 2)
		b.Lw(rT2, rTmp, 0)
		b.Andi(rTmp, rU, 31)
		b.Lsr(rT2, rT2, rTmp)
		b.AndiBr(rT2, rT2, 1, kbuild.CondNZ, "edge_next") // already visited
		// New vertex: set its bit in `next` under the mutex (8B RMW).
		// Precompute outside the critical section, consuming rU: rT2 = bit
		// mask, rV is dead here and holds the in-block word offset, rU
		// becomes the MRAM address of the 8B block.
		b.Andi(rTmp, rU, 31)
		b.Movi(rT2, 1)
		b.Lsl(rT2, rT2, rTmp)
		b.Lsri(rTmp, rU, 5)
		b.Andi(rTmp, rTmp, 1)
		b.Lsli(rV, rTmp, 2)
		b.Lsri(rTmp, rU, 6)
		b.IndexVia(rU, rNx, rTmp, 3, rTmp)
		b.AcquireSpin(lock)
		b.Ldmai(pWB, rU, 8)
		b.Add(rV, pWB, rV)
		b.Lw(rTmp, rV, 0)
		b.Or(rTmp, rTmp, rT2)
		b.Sw(rTmp, rV, 0)
		b.Sdmai(pWB, rU, 8)
		b.Release(lock)
		b.Label("edge_next")
		b.Addi(rK, rK, 1)
		b.Jump("edges")
		b.Label("visit_done")
		b.Ret()

	case config.ModeCache:
		rCur, rFw, rBit, rV := kbuild.R(10), kbuild.R(11), kbuild.R(12), kbuild.R(13)
		rK, rKE, rU, rT2 := kbuild.R(14), kbuild.R(15), kbuild.R(16), kbuild.R(17)
		b.Mov(rCur, rS)
		b.Label("scan")
		b.Jge(rCur, rE, "fin")
		// Load the frontier word for vertex vLo+cur directly.
		b.Add(rTmp, rVLo, rCur)
		b.Lsri(rTmp, rTmp, 5)
		b.Index(rTmp, rFr, rTmp, 2)
		b.Lw(rFw, rTmp, 0)
		b.Movi(rBit, 0)
		b.Label("bits")
		b.Jeqi(rFw, 0, "word_done")
		b.AndiBr(rTmp, rFw, 1, kbuild.CondZ, "bit_next")
		b.Add(rV, rCur, rBit)
		b.Jge(rV, rE, "word_done")
		b.Call("visit")
		b.Label("bit_next")
		b.Lsri(rFw, rFw, 1)
		b.Addi(rBit, rBit, 1)
		b.Jump("bits")
		b.Label("word_done")
		b.Addi(rCur, rCur, 32)
		b.Jump("scan")
		b.Label("fin")
		b.Stop()

		b.Label("visit")
		b.Index(rTmp, rRP, rV, 2)
		b.Lw(rK, rTmp, 0)
		b.Lw(rKE, rTmp, 4)
		b.Label("edges")
		b.Jge(rK, rKE, "visit_done")
		b.Index(rTmp, rCI, rK, 2)
		b.Lw(rU, rTmp, 0)
		// visited test
		b.Lsri(rTmp, rU, 5)
		b.Index(rTmp, rVis, rTmp, 2)
		b.Lw(rT2, rTmp, 0)
		b.Andi(rTmp, rU, 31)
		b.Lsr(rT2, rT2, rTmp)
		b.AndiBr(rT2, rT2, 1, kbuild.CondNZ, "edge_next")
		// set next bit under the mutex
		b.AcquireSpin(lock)
		b.Lsri(rTmp, rU, 5)
		b.IndexVia(rT2, rNx, rTmp, 2, rTmp)
		b.Lw(rTmp, rT2, 0)
		b.Movi(kbuild.R(18), 1)
		b.Andi(kbuild.R(19), rU, 31)
		b.Lsl(kbuild.R(18), kbuild.R(18), kbuild.R(19))
		b.Or(rTmp, rTmp, kbuild.R(18))
		b.Sw(rTmp, rT2, 0)
		b.Release(lock)
		b.Label("edge_next")
		b.Addi(rK, rK, 1)
		b.Jump("edges")
		b.Label("visit_done")
		b.Ret()
	}
	return b.Build()
}

func runBFS(ctx context.Context, x *xfer, p Params) error {
	n := p.N
	if n%64 != 0 {
		return fmt.Errorf("bfs: n must be a multiple of 64")
	}
	g := genGraph(n, p.NNZPerRow, p.Seed)
	want := goldenBFS(g, n)

	parts := ranges(n, x.sys.NumDPUs(), 64)
	bm := n / 32 // words per vertex bitmap

	type lay struct{ rp, ci, frontier, visited, next region }
	lays := make([]lay, len(parts))
	rp := x.ints(parts[0][1] - parts[0][0] + 2)
	for d, pr := range parts {
		var bank mram
		rows := pr[1] - pr[0]
		base, limit := rebaseRows(rp, g.rowptr, pr[0], pr[1])
		l := lay{rp: bank.words(rows + 2), ci: bank.words(max(int(limit-base), 1))}
		l.frontier, l.visited, l.next = bank.words(bm), bank.words(bm), bank.words(bm)
		lays[d] = l
		x.put(d, l.rp, rp[:rows+2])
		x.put(d, l.ci, g.colidx[base:limit])
	}

	// Vertex 0 is the source: bit 0 of word 0.
	frontier, visited, next, zero := x.ints(bm), x.ints(bm), x.ints(bm), x.ints(bm)
	frontier[0], visited[0] = 1, 1
	dist := x.ints(n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0

	for level, live := int32(1), true; live; level++ {
		if level > int32(n) {
			return fmt.Errorf("bfs: runaway level loop")
		}
		if level > 1 {
			x.phase(host.PhaseExchange)
		}
		for d, pr := range parts {
			l := lays[d]
			x.put(d, l.frontier, frontier)
			x.put(d, l.visited, visited)
			x.put(d, l.next, zero)
			x.args(d, l.rp.addr(), l.ci.addr(), l.frontier.addr(), l.visited.addr(),
				l.next.addr(), uint32(pr[0]), uint32(pr[1]))
		}
		x.launch(ctx, host.PhaseExchange)
		clear(next)
		for d := range parts {
			for i, w := range x.get(d, lays[d].next) {
				next[i] |= w
			}
		}
		// newFrontier = next &^ visited
		live = false
		for i := range next {
			next[i] &^= visited[i]
			visited[i] |= next[i]
			live = live || next[i] != 0
		}
		for v := 0; v < n; v++ {
			if next[v/32]&(1<<(v%32)) != 0 {
				dist[v] = level
			}
		}
		frontier, next = next, frontier
	}
	return checkI32s("BFS distances", dist, want)
}

// graph is a host-side CSR adjacency structure.
type graph struct {
	rowptr []int32
	colidx []int32
}

type graphKey struct {
	n, extra int
	seed     int64
}

// genGraph builds a connected sparse graph: a ring plus random edges, with
// both directions materialized and rows sorted (memoized: read-only).
func genGraph(n, extra int, seed int64) *graph {
	return memo(graphKey{n, extra, seed}, func() *graph { return newGraph(n, extra, seed) })
}

func newGraph(n, extra int, seed int64) *graph {
	r := rand.New(rand.NewSource(seed))
	adj := make([][]int32, n)
	addEdge := func(a, b int32) {
		adj[a] = append(adj[a], b)
		adj[b] = append(adj[b], a)
	}
	for v := 0; v < n; v++ {
		addEdge(int32(v), int32((v+1)%n))
	}
	for i := 0; i < n*extra/2; i++ {
		a, b := r.Int31n(int32(n)), r.Int31n(int32(n))
		if a != b {
			addEdge(a, b)
		}
	}
	g := &graph{rowptr: make([]int32, n+1)}
	for v := 0; v < n; v++ {
		row := adj[v]
		for i := 1; i < len(row); i++ {
			for j := i; j > 0 && row[j] < row[j-1]; j-- {
				row[j], row[j-1] = row[j-1], row[j]
			}
		}
		g.colidx = append(g.colidx, row...)
		g.rowptr[v+1] = int32(len(g.colidx))
	}
	return g
}

func goldenBFS(g *graph, n int) []int32 {
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[0] = 0
	queue := []int32{0}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for k := g.rowptr[v]; k < g.rowptr[v+1]; k++ {
			u := g.colidx[k]
			if dist[u] < 0 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}
