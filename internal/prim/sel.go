package prim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// SEL: stream compaction — keep elements satisfying the predicate
// (x & 1) == 0. Each tasklet compacts its slice densely into a per-tasklet
// output region starting at out+start*4 and reports its kept-count; the host
// stitches slices together (the same per-partition layout PrIM's multi-DPU
// SEL hands back to the host).

const selChunkElems = 128

func init() {
	register(&Benchmark{
		Name:  "SEL",
		About: "stream compaction (512K elem. single-DPU in Table II)",
		Params: func(s Scale) Params {
			switch s {
			case ScaleTiny:
				return Params{N: 8 << 10, Seed: 3}
			case ScaleSmall:
				return Params{N: 128 << 10, Seed: 3}
			default:
				return Params{N: 512 << 10, Seed: 3}
			}
		},
		Build: buildSEL,
		Run:   staged(runSEL),
	})
}

// emitSelUniCounts publishes per-tasklet kept-counts: counts staged in WRAM,
// barrier, tasklet 0 DMAs all of them out (cache mode stores directly).
func emitSelUniCounts(b *kbuild.Builder, mode config.Mode, bar *kbuild.Barrier,
	cnts string, rCnt, rCntOut kbuild.Reg) {
	rTmp, rX := kbuild.R(20), kbuild.R(21)
	b.MoviSym(rTmp, cnts, 0)
	b.Lsli(rX, kbuild.ID, 2)
	b.Add(rTmp, rTmp, rX)
	b.Sw(rCnt, rTmp, 0)
	b.Wait(bar, kbuild.R(19), kbuild.R(20), kbuild.R(21))
	b.Jnei(kbuild.ID, 0, "cnt_done")
	if mode == config.ModeScratchpad {
		b.MoviSym(rTmp, cnts, 0)
		b.Sdmai(rTmp, rCntOut, 16*4)
	} else {
		// Direct stores of NTH words.
		b.MoviSym(rTmp, cnts, 0)
		b.Movi(rX, 0)
		b.Label("cnt_loop")
		b.Lw(kbuild.R(19), rTmp, 0)
		b.Sw(kbuild.R(19), rCntOut, 0)
		b.Addi(rTmp, rTmp, 4)
		b.Addi(rCntOut, rCntOut, 4)
		b.Addi(rX, rX, 1)
		b.Jlt(rX, kbuild.NTH, "cnt_loop")
	}
	b.Label("cnt_done")
}

func buildSEL(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("sel-" + mode.String())
	rA, rN, rOut, rCntOut := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	rStart, rEnd, rTmp, rCnt := kbuild.R(4), kbuild.R(5), kbuild.R(6), kbuild.R(7)
	cnts := b.Static("cnts", 16*4, 8)
	bar := b.NewBarrier("bar")
	b.LoadArg(rA, 0)
	b.LoadArg(rN, 1)
	b.LoadArg(rOut, 2)
	b.LoadArg(rCntOut, 3)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rCnt, 0)

	switch mode {
	case config.ModeScratchpad:
		inBuf := b.Static("inBuf", 16*selChunkElems*4, 8)
		outBuf := b.Static("outBuf", 16*(selChunkElems+2)*4, 8)
		pIn, pOut0 := kbuild.R(8), kbuild.R(9)
		rElems, rBytes, rMram := kbuild.R(10), kbuild.R(11), kbuild.R(12)
		pX, pEndW, rX, pW := kbuild.R(13), kbuild.R(14), kbuild.R(15), kbuild.R(16)
		rWPos, rFlushed := kbuild.R(17), kbuild.R(18)
		b.MoviSym(pIn, inBuf, 0)
		b.Muli(rTmp, kbuild.ID, selChunkElems*4)
		b.Add(pIn, pIn, rTmp)
		b.MoviSym(pOut0, outBuf, 0)
		b.Muli(rTmp, kbuild.ID, (selChunkElems+2)*4)
		b.Add(pOut0, pOut0, rTmp)
		b.Movi(rWPos, 0)    // pending elements in outBuf
		b.Movi(rFlushed, 0) // elements already written to MRAM

		b.Label("chunk")
		b.Jge(rStart, rEnd, "tail")
		b.Sub(rElems, rEnd, rStart)
		b.Jlti(rElems, selChunkElems, "sized")
		b.Movi(rElems, selChunkElems)
		b.Label("sized")
		b.Lsli(rBytes, rElems, 2)
		b.Lsli(rMram, rStart, 2)
		b.Add(rMram, rA, rMram)
		b.Ldma(pIn, rMram, rBytes)
		b.Mov(pX, pIn)
		b.Add(pEndW, pIn, rBytes)
		b.Label("inner")
		b.Lw(rX, pX, 0)
		b.AndiBr(rTmp, rX, 1, kbuild.CondNZ, "skip") // odd -> dropped
		b.Lsli(rTmp, rWPos, 2)
		b.Add(pW, pOut0, rTmp)
		b.Sw(rX, pW, 0)
		b.Addi(rWPos, rWPos, 1)
		b.Label("skip")
		b.Addi(pX, pX, 4)
		b.Jlt(pX, pEndW, "inner")
		b.Add(rStart, rStart, rElems)
		// Flush an even number of pending elements.
		b.Andi(rTmp, rWPos, -2)
		b.Jeqi(rTmp, 0, "chunk")
		b.Lsli(rBytes, rTmp, 2)
		// MRAM target: out + (tasklet base + flushed)*4. Tasklet base is the
		// original start; recompute it from n (rElems is free here).
		b.LoadArg(rElems, 1)
		b.TaskletRangeAligned(rMram, pX, rElems, pEndW, 2)
		b.Add(rMram, rMram, rFlushed)
		b.Lsli(rMram, rMram, 2)
		b.Add(rMram, rOut, rMram)
		b.Sdma(pOut0, rMram, rBytes)
		b.Add(rFlushed, rFlushed, rTmp)
		// Move a trailing odd element to the buffer head.
		b.Sub(rWPos, rWPos, rTmp)
		b.Jeqi(rWPos, 0, "chunk")
		b.Lsli(rTmp, rTmp, 2)
		b.Add(pW, pOut0, rTmp)
		b.Lw(rX, pW, 0)
		b.Sw(rX, pOut0, 0)
		b.Jump("chunk")
		// Tail: flush the final (possibly odd, padded to even) element(s).
		b.Label("tail")
		b.Add(rCnt, rFlushed, rWPos)
		b.Jeqi(rWPos, 0, "publish")
		b.Addi(rTmp, rWPos, 1)
		b.Andi(rTmp, rTmp, -2) // round up to even
		b.Lsli(rBytes, rTmp, 2)
		b.LoadArg(rElems, 1)
		b.TaskletRangeAligned(rMram, pX, rElems, pEndW, 2)
		b.Add(rMram, rMram, rFlushed)
		b.Lsli(rMram, rMram, 2)
		b.Add(rMram, rOut, rMram)
		b.Sdma(pOut0, rMram, rBytes)
		b.Label("publish")
		emitSelUniCounts(b, mode, bar, cnts, rCnt, rCntOut)
		b.Stop()

	case config.ModeCache:
		pX, pEndW, pW, rX := kbuild.R(8), kbuild.R(9), kbuild.R(10), kbuild.R(11)
		b.Lsli(rTmp, rStart, 2)
		b.Add(pX, rA, rTmp)
		b.Add(pW, rOut, rTmp)
		b.Lsli(rTmp, rEnd, 2)
		b.Add(pEndW, rA, rTmp)
		b.Label("loop")
		b.Jge(pX, pEndW, "publish")
		b.Lw(rX, pX, 0)
		b.AndiBr(rTmp, rX, 1, kbuild.CondNZ, "skip")
		b.Sw(rX, pW, 0)
		b.Addi(pW, pW, 4)
		b.Addi(rCnt, rCnt, 1)
		b.Label("skip")
		b.Addi(pX, pX, 4)
		b.Jump("loop")
		b.Label("publish")
		emitSelUniCounts(b, mode, bar, cnts, rCnt, rCntOut)
		b.Stop()

	default:
		return nil, fmt.Errorf("sel: unsupported mode %v", mode)
	}
	return b.Build()
}

func runSEL(ctx context.Context, x *xfer, p Params) error {
	return runCompaction(ctx, x, p, "SEL", 1<<10,
		func(a []int32, _, i int) bool { return a[i]&1 == 0 })
}

// runCompaction drives SEL and UNI, which share the dense-per-tasklet output
// layout: inputs drawn from [0, bound), and keep deciding by global index
// with access to the full array and the DPU slice start (UNI's neighbour
// comparison restarts at slice boundaries; SEL looks at the value alone).
func runCompaction(ctx context.Context, x *xfer, p Params, what string, bound int32,
	keep func(a []int32, sliceStart, i int) bool) error {
	a := randI32s(p.N, bound, p.Seed)
	slices := ranges(p.N, x.sys.NumDPUs(), 2)
	type lay struct{ out, counts region }
	lays := make([]lay, len(slices))
	for d, r := range slices {
		var m mram
		cnt := r[1] - r[0]
		in := m.words(cnt)
		lays[d] = lay{out: m.words(cnt), counts: m.words(16)}
		x.put(d, in, a[r[0]:r[1]])
		x.args(d, in.addr(), uint32(cnt), lays[d].out.addr(), lays[d].counts.addr())
	}
	x.launch(ctx, host.PhaseOutput)
	nth := x.sys.Config().NumTasklets
	want := x.ints(slices[0][1] - slices[0][0])
	for d, r := range slices {
		var counts [16]int32
		copy(counts[:], x.get(d, lays[d].counts))
		out := x.get(d, lays[d].out)
		// Verify each tasklet's dense region against the golden compaction
		// of its slice.
		for t, tr := range taskletRanges(r[1]-r[0], nth) {
			want = want[:0]
			for gi := r[0] + tr[0]; gi < r[0]+tr[1]; gi++ {
				if keep(a, r[0], gi) {
					want = append(want, a[gi])
				}
			}
			if int(counts[t]) != len(want) {
				return fmt.Errorf("%s: dpu %d tasklet %d count = %d, want %d",
					what, d, t, counts[t], len(want))
			}
			if err := checkI32s(what, out[tr[0]:tr[0]+len(want)], want); err != nil {
				return fmt.Errorf("dpu %d tasklet %d: %w", d, t, err)
			}
		}
	}
	return nil
}

// taskletRanges mirrors kbuild.TaskletRangeAligned's partitioning on the
// host side (ceil(n/NTH) rounded up to 2).
func taskletRanges(n, tasklets int) [][2]int {
	out := make([][2]int, tasklets)
	chunk := (n + tasklets - 1) / tasklets
	chunk = (chunk + 1) &^ 1
	for t := 0; t < tasklets; t++ {
		lo := min(t*chunk, n)
		hi := min(lo+chunk, n)
		out[t] = [2]int{lo, hi}
	}
	return out
}
