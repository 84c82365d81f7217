package prim

import (
	"context"
	"fmt"

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

func init() {
	register(&Benchmark{
		Name:  "SCAN-SSA",
		About: "prefix sum, scan-scan-add (256K elem. single-DPU in Table II)",
		Params: func(s Scale) Params {
			switch s {
			case ScaleTiny:
				return Params{N: 8 << 10, Seed: 5}
			case ScaleSmall:
				return Params{N: 64 << 10, Seed: 5}
			default:
				return Params{N: 256 << 10, Seed: 5}
			}
		},
		Build: func(m config.Mode) (*linker.Object, error) { return buildScan(m, true) },
		Run:   staged(runScan),
	})
	register(&Benchmark{
		Name:  "SCAN-RSS",
		About: "prefix sum, reduce-scan-scan (256K elem. single-DPU in Table II)",
		Params: func(s Scale) Params {
			switch s {
			case ScaleTiny:
				return Params{N: 8 << 10, Seed: 6}
			case ScaleSmall:
				return Params{N: 64 << 10, Seed: 6}
			default:
				return Params{N: 256 << 10, Seed: 6}
			}
		},
		Build: func(m config.Mode) (*linker.Object, error) { return buildScan(m, false) },
		Run:   staged(runScan),
	})
}

func buildScan(mode config.Mode, ssa bool) (*linker.Object, error) {
	variant := "rss"
	if ssa {
		variant = "ssa"
	}
	b := kbuild.New("scan-" + variant + "-" + mode.String())
	rA, rN, rOut := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	rStart, rEnd, rTmp, rCarry := kbuild.R(3), kbuild.R(4), kbuild.R(5), kbuild.R(6)
	partials := b.Static("partials", 16*4, 8)
	bar := b.NewBarrier("bar")
	b.LoadArg(rA, 0)
	b.LoadArg(rN, 1)
	b.LoadArg(rOut, 2)
	b.TaskletRangeAligned(rStart, rEnd, rN, rTmp, 2)
	b.Movi(rCarry, 0)

	// publishAndScanPartials: partials[ID] = carry; barrier; tasklet 0
	// exclusive-scans partials in place; barrier.
	publish := func(t1, t2, t3 kbuild.Reg) {
		b.MoviSym(rTmp, partials, 0)
		b.Lsli(t1, kbuild.ID, 2)
		b.Add(rTmp, rTmp, t1)
		b.Sw(rCarry, rTmp, 0)
		b.Wait(bar, t1, t2, t3)
		skip := b.Gensym("noscan")
		b.Jnei(kbuild.ID, 0, skip)
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
		// Reload my offset into rCarry.
		b.MoviSym(rTmp, partials, 0)
		b.Lsli(t1, kbuild.ID, 2)
		b.Add(rTmp, rTmp, t1)
		b.Lw(rCarry, rTmp, 0)
	}

	switch mode {
	case config.ModeScratchpad:
		buf := b.Static("buf", 16*scanChunkElems*4, 8)
		pBuf, rElems, rBytes, rMram := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		pX, pEndW, rX, rCur := kbuild.R(11), kbuild.R(12), kbuild.R(13), kbuild.R(14)
		b.MoviSym(pBuf, buf, 0)
		b.Muli(rTmp, kbuild.ID, scanChunkElems*4)
		b.Add(pBuf, pBuf, rTmp)

		// chunkPass stages chunks of [cur, end) and runs body per chunk.
		chunkPass := func(name string, src kbuild.Reg, writeBack bool, dst kbuild.Reg, body func()) {
			b.Mov(rCur, rStart)
			top := name + "_top"
			done := name + "_done"
			sized := name + "_sized"
			b.Label(top)
			b.Jge(rCur, rEnd, done)
			b.Sub(rElems, rEnd, rCur)
			b.Jlti(rElems, scanChunkElems, sized)
			b.Movi(rElems, scanChunkElems)
			b.Label(sized)
			b.Lsli(rBytes, rElems, 2)
			b.Lsli(rMram, rCur, 2)
			b.Add(rMram, src, rMram)
			b.Ldma(pBuf, rMram, rBytes)
			b.Mov(pX, pBuf)
			b.Add(pEndW, pBuf, rBytes)
			body()
			if writeBack {
				b.Lsli(rMram, rCur, 2)
				b.Add(rMram, dst, rMram)
				b.Sdma(pBuf, rMram, rBytes)
			}
			b.Add(rCur, rCur, rElems)
			b.Jump(top)
			b.Label(done)
		}

		if ssa {
			// Pass 1: local scan into out; carry accumulates the total.
			chunkPass("p1", rA, true, rOut, func() {
				loop := b.Gensym("scan")
				b.Label(loop)
				b.Lw(rX, pX, 0)
				b.Add(rCarry, rCarry, rX)
				b.Sw(rCarry, pX, 0)
				b.Addi(pX, pX, 4)
				b.Jlt(pX, pEndW, loop)
			})
			publish(kbuild.R(15), kbuild.R(16), kbuild.R(17))
			// Pass 2: add the slice offset to out (tasklet 0 skips: offset 0).
			b.Jeqi(rCarry, 0, "fin")
			chunkPass("p2", rOut, true, rOut, func() {
				loop := b.Gensym("addoff")
				b.Label(loop)
				b.Lw(rX, pX, 0)
				b.Add(rX, rX, rCarry)
				b.Sw(rX, pX, 0)
				b.Addi(pX, pX, 4)
				b.Jlt(pX, pEndW, loop)
			})
		} else {
			// Pass 1: reduce only.
			chunkPass("p1", rA, false, rOut, func() {
				loop := b.Gensym("red")
				b.Label(loop)
				b.Lw(rX, pX, 0)
				b.Add(rCarry, rCarry, rX)
				b.Addi(pX, pX, 4)
				b.Jlt(pX, pEndW, loop)
			})
			publish(kbuild.R(15), kbuild.R(16), kbuild.R(17))
			// Pass 2: scan with carry-in, single write pass.
			chunkPass("p2", rA, true, rOut, func() {
				loop := b.Gensym("scan")
				b.Label(loop)
				b.Lw(rX, pX, 0)
				b.Add(rCarry, rCarry, rX)
				b.Sw(rCarry, pX, 0)
				b.Addi(pX, pX, 4)
				b.Jlt(pX, pEndW, loop)
			})
		}
		b.Label("fin")
		b.Stop()

	case config.ModeCache:
		pX, pW, pEndW, rX := kbuild.R(7), kbuild.R(8), kbuild.R(9), kbuild.R(10)
		if ssa {
			// Pass 1: direct local scan into out.
			b.Lsli(rTmp, rStart, 2)
			b.Add(pX, rA, rTmp)
			b.Add(pW, rOut, rTmp)
			b.Lsli(rTmp, rEnd, 2)
			b.Add(pEndW, rA, rTmp)
			b.Label("p1")
			b.Jge(pX, pEndW, "p1done")
			b.Lw(rX, pX, 0)
			b.Add(rCarry, rCarry, rX)
			b.Sw(rCarry, pW, 0)
			b.Addi(pX, pX, 4)
			b.Addi(pW, pW, 4)
			b.Jump("p1")
			b.Label("p1done")
			publish(kbuild.R(12), kbuild.R(13), kbuild.R(14))
			b.Jeqi(rCarry, 0, "fin")
			b.Lsli(rTmp, rStart, 2)
			b.Add(pW, rOut, rTmp)
			b.Lsli(rTmp, rEnd, 2)
			b.Add(pEndW, rOut, rTmp)
			b.Label("p2")
			b.Jge(pW, pEndW, "fin")
			b.Lw(rX, pW, 0)
			b.Add(rX, rX, rCarry)
			b.Sw(rX, pW, 0)
			b.Addi(pW, pW, 4)
			b.Jump("p2")
		} else {
			b.Lsli(rTmp, rStart, 2)
			b.Add(pX, rA, rTmp)
			b.Lsli(rTmp, rEnd, 2)
			b.Add(pEndW, rA, rTmp)
			b.Label("p1")
			b.Jge(pX, pEndW, "p1done")
			b.Lw(rX, pX, 0)
			b.Add(rCarry, rCarry, rX)
			b.Addi(pX, pX, 4)
			b.Jump("p1")
			b.Label("p1done")
			publish(kbuild.R(12), kbuild.R(13), kbuild.R(14))
			b.Lsli(rTmp, rStart, 2)
			b.Add(pX, rA, rTmp)
			b.Add(pW, rOut, rTmp)
			b.Lsli(rTmp, rEnd, 2)
			b.Add(pEndW, rA, rTmp)
			b.Label("p2")
			b.Jge(pX, pEndW, "fin")
			b.Lw(rX, pX, 0)
			b.Add(rCarry, rCarry, rX)
			b.Sw(rCarry, pW, 0)
			b.Addi(pX, pX, 4)
			b.Addi(pW, pW, 4)
			b.Jump("p2")
		}
		b.Label("fin")
		b.Stop()

	default:
		return nil, fmt.Errorf("scan: unsupported mode %v", mode)
	}
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
