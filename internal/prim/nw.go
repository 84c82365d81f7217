package prim

import (
	"context"
	"fmt"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// NW: Needleman-Wunsch global sequence alignment. The (L+1)x(L+1) score
// matrix is processed as 16x16 blocks along anti-diagonal waves; blocks on a
// wave are independent, so tasklets split them and a barrier closes each
// wave — the limited-TLP, synchronization-bound pattern Fig 6/7 show for NW.
//
// Block halos: the top row comes from the score matrix itself (written by
// the block above in an earlier wave); the left column flows through a
// dedicated column-halo array (colh) written by the left neighbour, which
// keeps every DMA 8-byte aligned. Each block writes back rows of B+2 words
// ([left halo, B cells, scratch]) so row writes stay aligned; the scratch
// word lands on a cell the block to the right rewrites in a later wave.
//
// Multi-DPU: block-rows are banded across DPUs, one launch per wave, with
// the host copying band-boundary rows between DPUs after each wave — the
// growing DPU-to-DPU exchange that makes NW scale sub-linearly in Fig 10.

const (
	nwB        = 16 // block edge
	nwGap      = 1
	nwMatch    = 1
	nwMismatch = -1
)

func buildNW(mode config.Mode) (*linker.Object, error) {
	b := kbuild.New("nw-" + mode.String())
	// args: 0=dp 1=colh 2=s1 3=s2 4=L 5=strideWords 6=waveLo 7=waveHi
	//       8=bandLo 9=bandHi (block-row range owned by this DPU)
	bar := b.NewBarrier("bar")
	rWave, rBi := kbuild.R(0), kbuild.R(2)

	// Outer wave loop (shared by both modes; the block body differs).
	b.LoadArg(rWave, 6)
	b.Label("waveloop")
	// biLo = max(bandLo, wave-(nb-1)); bi starts at biLo + ID.
	b.LoadArg(kbuild.R(4), 4)
	b.Lsri(kbuild.R(4), kbuild.R(4), 4) // nb
	b.LoadArg(kbuild.R(5), 8)           // bandLo
	b.Sub(kbuild.R(6), rWave, kbuild.R(4))
	b.Addi(kbuild.R(6), kbuild.R(6), 1)
	b.Jge(kbuild.R(5), kbuild.R(6), "bilo_ok")
	b.Mov(kbuild.R(5), kbuild.R(6))
	b.Label("bilo_ok")
	b.Add(rBi, kbuild.R(5), kbuild.ID)
	b.Label("biloop")
	// biHi = min(bandHi-1, wave), recomputed (the block body clobbers temps).
	b.LoadArg(kbuild.R(3), 9)
	b.Subi(kbuild.R(3), kbuild.R(3), 1)
	b.Jle(kbuild.R(3), rWave, "bihi_ok")
	b.Mov(kbuild.R(3), rWave)
	b.Label("bihi_ok")
	b.Jgt(rBi, kbuild.R(3), "wavedone")
	b.Call("block")
	b.Add(rBi, rBi, kbuild.NTH)
	b.Jump("biloop")
	b.Label("wavedone")
	b.Wait(bar, kbuild.R(4), kbuild.R(5), kbuild.R(6))
	b.Addi(rWave, rWave, 1)
	b.LoadArg(kbuild.R(1), 7)
	b.Jle(rWave, kbuild.R(1), "waveloop")
	b.Stop()

	// Block body: preserves r0 (wave) and r2 (bi), clobbers everything else.
	b.Label("block")
	rBj, rI0, rJ0 := kbuild.R(7), kbuild.R(8), kbuild.R(9)
	b.Sub(rBj, rWave, rBi)
	b.Lsli(rI0, rBi, 4)
	b.Addi(rI0, rI0, 1)
	b.Lsli(rJ0, rBj, 4)
	b.Addi(rJ0, rJ0, 1)

	// Cell-loop state shared by both block bodies: row counter rR, the cell
	// to the left (rLeft), this row's s1 character (rC1), the write pointer
	// pW, column counter rCc, the up and diagonal neighbours loaded through
	// pUp (the row above), and the temp rT.
	rR, rLeft, rC1 := kbuild.R(19), kbuild.R(21), kbuild.R(22)
	pW, rCc, rUp, rDg, rT, pUp := kbuild.R(3), kbuild.R(4), kbuild.R(5), kbuild.R(6), kbuild.R(1), kbuild.R(13)
	// score closes the cell loops: with rT = s2[c], rUp and rDg loaded, it
	// writes max(diag+match/mismatch, up-gap, left-gap) and steps the column
	// loop ("cloop") and the row loop ("rowloop").
	score := func() {
		b.Sub(rT, rC1, rT)
		b.Jeqi(rT, 0, "match")
		b.Addi(rDg, rDg, nwMismatch)
		b.Jump("scored")
		b.Label("match")
		b.Addi(rDg, rDg, nwMatch)
		b.Label("scored")
		b.Subi(rUp, rUp, nwGap)
		b.Jge(rDg, rUp, "m1")
		b.Mov(rDg, rUp)
		b.Label("m1")
		b.Subi(rT, rLeft, nwGap)
		b.Jge(rDg, rT, "m2")
		b.Mov(rDg, rT)
		b.Label("m2")
		b.Sw(rDg, pW, 0)
		b.Mov(rLeft, rDg)
		b.Addi(pW, pW, 4)
		b.Addi(pUp, pUp, 4)
		b.Addi(rCc, rCc, 1)
		b.Jlti(rCc, nwB, "cloop")
		b.Addi(rR, rR, 1)
		b.Jlti(rR, nwB, "rowloop")
	}

	switch mode {
	case config.ModeScratchpad:
		top := b.TaskletStatic("top", 96)
		colb := b.TaskletStatic("colb", 64)
		blk := b.TaskletStatic("blk", nwB*(nwB+2)*4)
		s1b := b.TaskletStatic("s1b", 64)
		s2b := b.TaskletStatic("s2b", 64)
		rFs, rStride := kbuild.R(10), kbuild.R(11)
		pTop, pCol, pS1, pS2, pBlk := kbuild.R(14), kbuild.R(15), kbuild.R(16), kbuild.R(17), kbuild.R(18)
		t1, t2 := kbuild.R(12), kbuild.R(13)

		// fs: top-halo fetch column (j0-3, or 0 for the first block column).
		b.Movi(rFs, 0)
		b.Jeqi(rBj, 0, "fs_ok")
		b.Subi(rFs, rJ0, 3)
		b.Label("fs_ok")
		b.LoadArg(rStride, 5)

		// Stage top halo (80B), left column (64B), sequence slices (64B).
		b.TaskletPtr(pTop, top, 96, t1)
		b.Subi(t1, rI0, 1)
		b.Mul(t1, t1, rStride)
		b.Add(t1, t1, rFs)
		b.Lsli(t1, t1, 2)
		b.LoadArg(t2, 0)
		b.Add(t1, t2, t1)
		b.Ldmai(pTop, t1, 80)

		b.TaskletPtr(pCol, colb, 64, t1)
		b.LoadArg(t1, 1)
		b.IndexVia(t1, t1, rBi, 6, t2)
		b.Ldmai(pCol, t1, 64)

		b.TaskletPtr(pS1, s1b, 64, t1)
		b.LoadArg(t1, 2)
		b.Subi(t2, rI0, 1)
		b.IndexVia(t1, t1, t2, 2, t2)
		b.Ldmai(pS1, t1, 64)

		b.TaskletPtr(pS2, s2b, 64, t1)
		b.LoadArg(t1, 3)
		b.Subi(t2, rJ0, 1)
		b.IndexVia(t1, t1, t2, 2, t2)
		b.Ldmai(pS2, t1, 64)

		b.TaskletPtr(pBlk, blk, nwB*(nwB+2)*4, t1)

		// Cell loops over the staged block; pCur is the row's base in blk.
		pCur := kbuild.R(20)
		b.Movi(rR, 0)
		b.Label("rowloop")
		b.Muli(pCur, rR, (nwB+2)*4)
		b.Add(pCur, pBlk, pCur)
		// pUp: row 0 reads the top halo; later rows read the previous row.
		b.Jnei(rR, 0, "row_gen")
		b.Sub(pUp, rJ0, rFs)
		b.Index(pUp, pTop, pUp, 2)
		b.Jump("row_set")
		b.Label("row_gen")
		b.Addi(pUp, pCur, -(nwB+2)*4+4)
		b.Label("row_set")
		// left = colb[r]; blk[r][0] = left (the aligned-writeback halo word).
		b.Index(rT, pCol, rR, 2)
		b.Lw(rLeft, rT, 0)
		b.Sw(rLeft, pCur, 0)
		// s1 character for this row.
		b.Index(rT, pS1, rR, 2)
		b.Lw(rC1, rT, 0)
		b.Movi(rCc, 0)
		b.Addi(pW, pCur, 4)
		b.Label("cloop")
		b.Lw(rUp, pUp, 0)
		b.Lw(rDg, pUp, -4)
		// match/mismatch on s2[c].
		b.Index(rT, pS2, rCc, 2)
		b.Lw(rT, rT, 0)
		score()

		// Write back the B rows (B+2 words each) into the score matrix.
		b.Movi(rR, 0)
		b.Label("wbloop")
		b.Muli(t1, rR, (nwB+2)*4)
		b.Add(t1, pBlk, t1)
		b.Add(t2, rI0, rR)
		b.Mul(t2, t2, rStride)
		b.Add(t2, t2, rJ0)
		b.Subi(t2, t2, 1)
		b.Lsli(t2, t2, 2)
		b.LoadArg(rT, 0)
		b.Add(t2, rT, t2)
		b.Sdmai(t1, t2, (nwB+2)*4)
		b.Addi(rR, rR, 1)
		b.Jlti(rR, nwB, "wbloop")

		// Publish my right edge as the next column halo for block (bi,bj+1).
		b.Movi(rR, 0)
		b.Label("chloop")
		b.Muli(t1, rR, (nwB+2)*4)
		b.Add(t1, pBlk, t1)
		b.Lw(t2, t1, nwB*4)
		b.Index(t1, pCol, rR, 2)
		b.Sw(t2, t1, 0)
		b.Addi(rR, rR, 1)
		b.Jlti(rR, nwB, "chloop")
		b.LoadArg(t1, 1)
		b.IndexVia(t1, t1, rBi, 6, t2)
		b.Sdmai(pCol, t1, 64)
		b.Ret()

	case config.ModeCache:
		// Direct-addressing block body: halos come straight from the score
		// matrix through the D-cache; colh is not needed.
		rStride, pDP, pS1, pS2 := kbuild.R(10), kbuild.R(11), kbuild.R(16), kbuild.R(17)
		b.LoadArg(rStride, 5)
		b.LoadArg(pDP, 0)
		b.LoadArg(pS1, 2)
		b.LoadArg(pS2, 3)
		b.Movi(rR, 0)
		b.Label("rowloop")
		// Row base pointers: pW = &dp[i0+r][j0], pUp = &dp[i0+r-1][j0].
		b.Add(rT, rI0, rR)
		b.Mul(rT, rT, rStride)
		b.Add(rT, rT, rJ0)
		b.IndexVia(pW, pDP, rT, 2, rT)
		b.Lsli(rT, rStride, 2)
		b.Sub(pUp, pW, rT)
		// left = dp[i0+r][j0-1]
		b.Lw(rLeft, pW, -4)
		// s1 char
		b.Add(rT, rI0, rR)
		b.Subi(rT, rT, 1)
		b.Index(rT, pS1, rT, 2)
		b.Lw(rC1, rT, 0)
		b.Movi(rCc, 0)
		b.Label("cloop")
		b.Lw(rUp, pUp, 0)
		b.Lw(rDg, pUp, -4)
		b.Add(rT, rJ0, rCc)
		b.Subi(rT, rT, 1)
		b.Index(rT, pS2, rT, 2)
		b.Lw(rT, rT, 0)
		score()
		b.Ret()
	}
	return b.Build()
}

// nwGolden computes the reference score matrix.
func nwGolden(s1, s2 []int32, L int) []int32 {
	dp := make([]int32, (L+1)*(L+1))
	at := func(i, j int) *int32 { return &dp[i*(L+1)+j] }
	for i := 0; i <= L; i++ {
		*at(i, 0) = int32(-i * nwGap)
		*at(0, i) = int32(-i * nwGap)
	}
	for i := 1; i <= L; i++ {
		for j := 1; j <= L; j++ {
			m := int32(nwMismatch)
			if s1[i-1] == s2[j-1] {
				m = nwMatch
			}
			best := *at(i-1, j-1) + m
			if v := *at(i-1, j) - nwGap; v > best {
				best = v
			}
			if v := *at(i, j-1) - nwGap; v > best {
				best = v
			}
			*at(i, j) = best
		}
	}
	return dp
}

func runNW(ctx context.Context, x *xfer, p Params) error {
	L := p.N
	if L%nwB != 0 {
		return fmt.Errorf("nw: L=%d must be a multiple of %d", L, nwB)
	}
	nb := L / nwB
	stride := L + 4 // words per dp row (even, with slack for the B+2 writes)
	s1 := randI32s(L, 4, p.Seed)
	s2 := randI32s(L, 4, p.Seed+1)
	want := nwGolden(s1, s2, L)

	// Layout (replicated on every DPU).
	var m mram
	dp, colh, rs1, rs2 := m.words((L+1)*stride), m.words(L), m.words(L), m.words(L)

	dpInit := x.ints(dp.words)
	for j := 0; j <= L; j++ {
		dpInit[j] = int32(-j * nwGap)
	}
	for i := 0; i <= L; i++ {
		dpInit[i*stride] = int32(-i * nwGap)
	}
	colhInit := x.ints(L)
	for k := range colhInit {
		colhInit[k] = int32(-(k + 1) * nwGap)
	}

	D := x.sys.NumDPUs()
	bands := ranges(nb, D, 1)
	for d := 0; d < D; d++ {
		x.put(d, dp, dpInit)
		x.put(d, colh, colhInit)
		x.put(d, rs1, s1)
		x.put(d, rs2, s2)
	}

	writeArgs := func(d int, waveLo, waveHi int) {
		x.args(d, dp.addr(), colh.addr(), rs1.addr(), rs2.addr(),
			uint32(L), uint32(stride), uint32(waveLo), uint32(waveHi),
			uint32(bands[d][0]), uint32(bands[d][1]))
	}

	if D == 1 {
		writeArgs(0, 0, 2*nb-2)
		x.launch(ctx, host.PhaseOutput)
	} else {
		// One launch per wave, with band-boundary row exchange in between.
		for wave := 0; wave <= 2*nb-2; wave++ {
			for d := 0; d < D; d++ {
				writeArgs(d, wave, wave)
			}
			x.launch(ctx, host.PhaseExchange)
			for d := 1; d < D; d++ {
				bs := bands[d][0]
				if bands[d][0] >= bands[d][1] || bs == 0 {
					continue
				}
				// The upper DPU just computed block (bs-1, wave-bs+1); its
				// bottom row feeds this DPU's next-wave block (bs, ...).
				bj := wave - (bs - 1)
				if bj < 0 || bj >= nb {
					continue
				}
				row := bs * nwB // dp row index of the boundary
				j0 := 1 + bj*nwB
				seam := dp.sub(row*stride+max(0, j0-4), 24)
				x.put(d, seam, x.get(d-1, seam))
			}
		}
	}

	// Verify each DPU's band of the score matrix.
	x.phase(host.PhaseOutput)
	for d := 0; d < D; d++ {
		lo, hi := bands[d][0], bands[d][1]
		if lo >= hi {
			continue
		}
		rowLo, rowHi := 1+lo*nwB, 1+hi*nwB-1
		vals := x.get(d, dp.sub(rowLo*stride, (rowHi-rowLo+1)*stride))
		for i := rowLo; i <= rowHi; i++ {
			for j := 1; j <= L; j++ {
				got := vals[(i-rowLo)*stride+j]
				if got != want[i*(L+1)+j] {
					return fmt.Errorf("NW: dpu %d cell (%d,%d) = %d, want %d",
						d, i, j, got, want[i*(L+1)+j])
				}
			}
		}
	}
	return nil
}
