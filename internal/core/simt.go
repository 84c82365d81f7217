package core

import (
	"fmt"
	"slices"

	"upim/internal/isa"
)

// The SIMT organisation (case study 1, Fig 11) is the same pipeline issuing
// a vector: warps are the scheduler's units — one run loop, timer queue and
// revolver rule for every organisation (core.go) — and each active lane runs
// the scalar interpreter (execute). This file holds what differs:
// which lanes a vector issue covers, and the coalescer between the lanes'
// loads/stores and the bank.

// warp groups SIMTWidth consecutive tasklets for lockstep execution on the
// vector unit. Divergence is handled post-Volta style: each lane keeps its
// own PC, and every issue executes the group of runnable lanes sharing the
// minimum PC under an active mask.
type warp struct {
	unit
	lanes []*thread

	// Lane-schedule cache: a warp's lanes only move at its own vector issue,
	// so the minimum PC and the active mask are recomputed there instead of
	// every cycle.
	minPC  uint16
	active []*thread
}

// refreshLanes recomputes the cached lane schedule: the active set is the
// group of non-stopped lanes at the minimum PC, and a warp with none left
// has stopped.
func (w *warp) refreshLanes() {
	w.minPC = ^uint16(0)
	for _, t := range w.lanes {
		if t.state != unitStopped && t.pc < w.minPC {
			w.minPC = t.pc
		}
	}
	w.active = w.active[:0]
	for _, t := range w.lanes {
		if t.state != unitStopped && t.pc == w.minPC {
			w.active = append(w.active, t)
		}
	}
	if len(w.active) == 0 {
		w.state = unitStopped
	}
}

// buildWarps gangs the tasklets into warps, the units of a SIMT run.
func (d *DPU) buildWarps() {
	sw := d.cfg.SIMTWidth
	nw := (len(d.threads) + sw - 1) / sw
	if cap(d.warpSlab) < nw {
		d.warpSlab = make([]warp, nw)
		d.warps = make([]*warp, nw)
	} else {
		d.warpSlab = d.warpSlab[:nw]
		d.warps = d.warps[:nw]
	}
	for i := range d.warps {
		w := &d.warpSlab[i]
		*w = warp{
			unit:   unit{id: i},
			lanes:  d.threads[i*sw : min((i+1)*sw, len(d.threads))],
			active: w.active[:0], // keep the lane-schedule scratch capacity
		}
		w.refreshLanes()
		d.warps[i] = w
	}
}

// executeVector issues the µop at the warp's minimum PC across its active
// lanes in lockstep: one issue slot, one trace record, the lanes' functional
// effects one by one, and for a load/store one coalesced trip to the bank.
// The vector unit has no RF-hazard model, DMA engine or atomic unit.
func (d *DPU) executeVector(w *warp) {
	u := &d.uops[w.minPC]
	d.st.VectorIssues++
	if d.cfg.TraceIssues {
		d.traceIssue(w.lanes[0].id, w.minPC, u.op, false)
	}
	switch u.class {
	case isa.ClassDMA, isa.ClassSync:
		d.faultPC(w.active[0], fmt.Errorf("%s is not supported by the SIMT vector engine", u.op))
		return
	}
	for _, t := range w.active {
		d.execute(t, u)
	}
	if len(d.vecBursts) > 0 {
		d.flushVector(&w.unit, u.isStore())
	}
	w.refreshLanes()
}

// laneRequest records one lane's MRAM access (execMem) with the coalescer
// datapath of Fig 11(a): with coalescing, lanes touching the same burst
// share one bank request; vecBursts, in first-touch order, is the seen-set
// (at most SIMTWidth entries).
func (d *DPU) laneRequest(off uint32) {
	d.st.UncoalescedRequests++
	burst := off &^ uint32(d.cfg.BurstBytes-1)
	if d.cfg.SIMTCoalesce && slices.Contains(d.vecBursts, burst) {
		return
	}
	d.vecBursts = append(d.vecBursts, burst)
}

// flushVector sends the requests of one vector load/store straight to the
// bank — no scratchpad staging, no link — as one transfer the warp waits out.
func (d *DPU) flushVector(u *unit, isStore bool) {
	d.st.CoalescedRequests += uint64(len(d.vecBursts))
	tag := sinkVector.tag(d.allocXfer(int32(u.id), int32(len(d.vecBursts))))
	now := d.nowTick()
	for _, b := range d.vecBursts {
		d.bank.Enqueue(b, isStore, now, tag)
	}
	d.vecBursts = d.vecBursts[:0]
	d.blockOnBank(u)
}
