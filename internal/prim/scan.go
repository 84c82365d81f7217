package prim

import (
	"context"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// SCAN-SSA and SCAN-RSS: inclusive prefix sum in PrIM's two flavours.
//
//   - SSA (scan-scan-add): pass 1 locally scans each tasklet's slice into
//     the output and records the slice total; tasklet 0 exclusive-scans the
//     totals; pass 2 re-reads the output and adds each slice's offset.
//   - RSS (reduce-scan-scan): pass 1 only reduces each slice; tasklet 0
//     scans the totals; pass 2 performs the local scan seeded with the
//     slice offset, writing the output once.
//
// SSA therefore writes the output twice, RSS reads the input twice — the
// phase-varying TLP behaviour Fig 8(c) shows for SCAN-SSA.

const scanChunkElems = 128

func buildScan(mode config.Mode, ssa bool) (*linker.Object, error) {
	variant := "rss"
	if ssa {
		variant = "ssa"
	}
	b := kbuild.New("scan-" + variant + "-" + mode.String())
	rA, rN, rOut := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	rStart, rEnd, rTmp, rCarry := kbuild.R(3), kbuild.R(4), kbuild.R(5), kbuild.R(6)
	partials := b.TaskletStatic("partials", 4)
	bar := b.NewBarrier("bar")
	b.LoadArgs(0, rA, rN, rOut)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rCarry, 0)

	// publish: partials[ID] = carry; barrier; tasklet 0 exclusive-scans
	// partials in place; barrier; every tasklet reloads its offset.
	publish := func(t1, t2, t3 kbuild.Reg) {
		skip := b.Gensym("noscan")
		b.PublishAndWait(partials, rCarry, rTmp, t1, bar, t1, t2, t3, skip)
		b.MoviSym(rTmp, partials, 0)
		b.Movi(t1, 0) // running total
		b.Movi(t2, 0) // index
		loop := b.Gensym("pscan")
		b.Label(loop)
		b.Lw(t3, rTmp, 0)
		b.Sw(t1, rTmp, 0)
		b.Add(t1, t1, t3)
		b.Addi(rTmp, rTmp, 4)
		b.Addi(t2, t2, 1)
		b.Jlt(t2, kbuild.NTH, loop)
		b.Label(skip)
		b.Wait(bar, t1, t2, t3)
		b.TaskletSlot(rTmp, partials, 2, t1)
		b.Lw(rCarry, rTmp, 0)
	}

	switch mode {
	case config.ModeScratchpad:
		buf := b.TaskletStatic("buf", scanChunkElems*4)
		pBuf, rElems, rBytes, rMram := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		pX, pEndW, rX, rCur := kbuild.R(11), kbuild.R(12), kbuild.R(13), kbuild.R(14)
		b.TaskletPtr(pBuf, buf, scanChunkElems*4, rTmp)

		// pass stages this tasklet's slice of src chunk by chunk, runs elem
		// on each staged word (loaded into rX through pX) and, with
		// writeBack, stores the chunk to the same words of out.
		pass := func(src kbuild.Reg, writeBack bool, elem func()) {
			b.Mov(rCur, rStart)
			b.StagedLoop(kbuild.Stage{Cur: rCur, End: rEnd, Src: src, Elems: rElems, Bytes: rBytes,
				Mram: rMram, Buf: pBuf, PX: pX, PEnd: pEndW, N: scanChunkElems}, func() {
				loop := b.Gensym("elem")
				b.Label(loop)
				b.Lw(rX, pX, 0)
				elem()
				b.Addi(pX, pX, 4)
				b.Jlt(pX, pEndW, loop)
				if writeBack {
					b.Index(rMram, rOut, rCur, 2)
					b.Sdma(pBuf, rMram, rBytes)
				}
			}, nil)
		}
		reduce := func() { b.Add(rCarry, rCarry, rX) }
		scan := func() {
			reduce()
			b.Sw(rCarry, pX, 0)
		}

		if ssa {
			// Pass 1: local scan into out; carry accumulates the total.
			pass(rA, true, scan)
			publish(kbuild.R(15), kbuild.R(16), kbuild.R(17))
			// Pass 2: add the slice offset to out (tasklet 0 skips: offset 0).
			b.Jeqi(rCarry, 0, "fin")
			pass(rOut, true, func() {
				b.Add(rX, rX, rCarry)
				b.Sw(rX, pX, 0)
			})
		} else {
			// Pass 1: reduce only.
			pass(rA, false, reduce)
			publish(kbuild.R(15), kbuild.R(16), kbuild.R(17))
			// Pass 2: scan with carry-in, single write pass.
			pass(rA, true, scan)
		}

	case config.ModeCache:
		pX, pW, pEndW, rX := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		// scan is the direct local scan of a into out, carry running.
		scan := func() {
			b.PtrRange(rStart, rEnd, rTmp, pEndW, pX, rA, pW, rOut)
			b.WalkWords(pEndW, func() {
				b.Lw(rX, pX, 0)
				b.Add(rCarry, rCarry, rX)
				b.Sw(rCarry, pW, 0)
			}, pX, pW)
		}
		if ssa {
			scan()
			publish(kbuild.R(12), kbuild.R(13), kbuild.R(14))
			b.Jeqi(rCarry, 0, "fin")
			b.PtrRange(rStart, rEnd, rTmp, pEndW, pW, rOut)
			b.WalkWords(pEndW, func() {
				b.Lw(rX, pW, 0)
				b.Add(rX, rX, rCarry)
				b.Sw(rX, pW, 0)
			}, pW)
		} else {
			b.PtrRange(rStart, rEnd, rTmp, pEndW, pX, rA)
			b.WalkWords(pEndW, func() {
				b.Lw(rX, pX, 0)
				b.Add(rCarry, rCarry, rX)
			}, pX)
			publish(kbuild.R(12), kbuild.R(13), kbuild.R(14))
			scan()
		}
	}
	b.Label("fin")
	b.Stop()
	return b.Build()
}

func runScan(ctx context.Context, x *xfer, p Params) error {
	n := p.N
	a := randI32s(n, 1<<12, p.Seed)
	slices := ranges(n, x.sys.NumDPUs(), 2)
	outs := make([]region, len(slices))
	for d, r := range slices {
		var m mram
		in := m.words(r[1] - r[0])
		outs[d] = m.words(in.words)
		x.put(d, in, a[r[0]:r[1]])
		x.args(d, in.addr(), uint32(in.words), outs[d].addr())
	}
	// Multi-DPU: each DPU scanned its slice locally; the host carries the
	// running base across slices (PrIM's multi-DPU scan does the same).
	x.launch(ctx, host.PhaseOutput)
	var base int32
	got := x.ints(n)[:0]
	for d := range slices {
		vals := x.get(d, outs[d])
		for _, v := range vals {
			got = append(got, v+base)
		}
		if len(vals) > 0 {
			base += vals[len(vals)-1]
		}
	}
	want := x.ints(n)
	var run int32
	for i, v := range a {
		run += v
		want[i] = run
	}
	return checkI32s("SCAN", got, want)
}
