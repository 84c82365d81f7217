package prim

import (
	"context"

	"upim/internal/config"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// UNI: unique — remove consecutive duplicates (the `uniq` primitive). The
// structure mirrors SEL, but the predicate compares against the previous
// element, so each tasklet with a non-zero start peeks one element back.
// This is the paper's poster child for scratchpad-friendly streaming
// (Fig 15/16: UNI prefers the scratchpad over the cache).

func buildUNI(mode config.Mode) (*linker.Object, error) {
	return buildCompaction("uni", mode, func(b *kbuild.Builder, r compactRegs, skip string) {
		b.SubBr(r.tmp, r.x, r.prev, kbuild.CondZ, skip) // duplicate of prev
	}, func(b *kbuild.Builder, mode config.Mode, r compactRegs) {
		// Seed prev: sentinel for start==0 (always keep the first element);
		// otherwise peek at a[start-1].
		b.Movi(r.prev, -1) // values are >= 0, so -1 never matches
		b.Jeqi(r.start, 0, "seeded")
		b.Jge(r.start, r.end, "seeded") // empty range
		if mode == config.ModeCache {
			b.Lw(r.prev, r.pX, -4) // direct peek
		} else {
			// An aligned 8B DMA around the even element index below start-1.
			prevBuf := b.TaskletStatic("prevBuf", 8)
			b.Subi(r.tmp, r.start, 1)
			b.Andi(r.tmp, r.tmp, -2)
			b.Lsli(r.mram, r.tmp, 2)
			b.Add(r.mram, r.a, r.mram)
			b.TaskletSlot(r.pW, prevBuf, 3, r.x)
			b.Ldmai(r.pW, r.mram, 8)
			// a[start-1] is word (start-1) - evenIdx within the peek.
			b.Subi(r.x, r.start, 1)
			b.Sub(r.x, r.x, r.tmp)
			b.Lsli(r.x, r.x, 2)
			b.Add(r.pW, r.pW, r.x)
			b.Lw(r.prev, r.pW, 0)
		}
		b.Label("seeded")
	})
}

// runUNI draws runs-friendly data (values in [0,8), so consecutive duplicates
// are common). The golden rule matches the kernel: within each DPU slice,
// keep element i iff it is the slice's first element or differs from its
// predecessor.
func runUNI(ctx context.Context, x *xfer, p Params) error {
	p.Seed += 77
	return runCompaction(ctx, x, p, "UNI", 8,
		func(a []int32, sliceStart, i int) bool { return i == sliceStart || a[i] != a[i-1] })
}
