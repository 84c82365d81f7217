package core

import (
	"context"
	"fmt"
	"math/bits"

	"upim/internal/isa"
	"upim/internal/mem"
)

// warp groups SIMTWidth consecutive tasklets for lockstep execution on the
// vector unit (case study 1, Fig 11). Divergence is handled post-Volta
// style: each lane keeps its own PC, and every issue executes the group of
// runnable lanes sharing the minimum PC under an active mask.
type warp struct {
	id    int
	lanes []*thread

	nextIssueAt uint64
	blocked     bool
	wakeAt      uint64

	// Lane-schedule cache: a warp's lanes only move at its own vector issue,
	// so the minimum PC, the active mask, and the live-lane count are
	// recomputed there instead of every cycle.
	minPC      uint16
	active     []*thread
	aliveLanes int
}

// refreshLanes recomputes the cached lane schedule: the active set is the
// group of non-stopped lanes at the minimum PC.
func (w *warp) refreshLanes() {
	w.minPC = ^uint16(0)
	w.aliveLanes = 0
	for _, t := range w.lanes {
		if t.state == threadStopped {
			continue
		}
		w.aliveLanes++
		if t.pc < w.minPC {
			w.minPC = t.pc
		}
	}
	w.active = w.active[:0]
	if w.aliveLanes == 0 {
		return
	}
	for _, t := range w.lanes {
		if t.state != threadStopped && t.pc == w.minPC {
			w.active = append(w.active, t)
		}
	}
}

// buildWarps gangs the tasklets into warps and seeds the warp-level
// scheduler state (the shared counters and timer queue operate on warps in
// SIMT mode).
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
	for base := 0; base < len(d.threads); base += sw {
		end := min(base+sw, len(d.threads))
		w := &d.warpSlab[base/sw]
		*w = warp{
			id:     base / sw,
			lanes:  d.threads[base:end],
			active: w.active[:0], // keep the lane-schedule scratch capacity
		}
		w.refreshLanes()
		d.warps[base/sw] = w
	}
	n := len(d.warps)
	d.sched.reset(d.cycle)
	d.issuable.reset(n)
	d.aliveN, d.blockedN, d.issuableN, d.issuableLanesN = n, 0, 0, 0
	for i := 0; i < n; i++ {
		d.sched.push(d.cycle, int32(i))
	}
}

func (d *DPU) runSIMT(ctx context.Context, deadline uint64) error {
	nextCtxCheck := d.cycle + ctxCheckInterval
	for d.cycle < deadline {
		if d.cycle >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return err
			}
			nextCtxCheck = d.cycle + ctxCheckInterval
		}
		if d.bank.Pending() > 0 {
			now := d.nowTick()
			if at, ok := d.bank.NextDecisionAt(); ok && at <= now {
				d.advanceBank(now)
			}
		}
		d.processDueWarps()
		if d.faultErr != nil {
			return d.faultErr
		}

		if d.aliveN == 0 {
			d.finish()
			return d.faultErr
		}
		issuableWarps, issuableLanes := d.issuableN, d.issuableLanesN
		memN := d.blockedN
		revN := d.aliveN - memN - issuableWarps
		d.st.RecordTLP(issuableLanes, 1, d.cfg.TimelineWindow)
		d.st.IssueSlots++

		if issuableWarps > 0 {
			d.issueWarp()
			d.st.Issued++
			if d.faultErr != nil {
				return d.faultErr
			}
		} else {
			d.st.AttributeIdle(1, memN, revN)
			d.simtFastForward(deadline, memN, revN)
		}
		d.cycle++
	}
	return fmt.Errorf("core: dpu %d exceeded its cycle watchdog in SIMT mode (deadline %d): %w", d.id, deadline, ErrWatchdogExpired)
}

// processDueWarps drains the timer queue up to the current cycle, waking
// blocked warps and admitting ready ones into the issuable set.
func (d *DPU) processDueWarps() {
	for {
		at, ok := d.sched.nextAt()
		if !ok || at > d.cycle {
			break
		}
		mask, big := d.sched.drainAt(at)
		for ; mask != 0; mask &= mask - 1 {
			d.warpTimerDue(d.warps[bits.TrailingZeros64(mask)])
		}
		for _, id := range big {
			d.warpTimerDue(d.warps[id])
		}
	}
	d.sched.advanceTo(d.cycle + 1)
}

// warpTimerDue reconsiders one warp whose timer fired.
func (d *DPU) warpTimerDue(w *warp) {
	if w.aliveLanes == 0 {
		return // stale timer of a finished warp
	}
	if w.blocked {
		if w.wakeAt == neverWake {
			return // the vector-memory sink re-arms the timer
		}
		if w.wakeAt > d.cycle {
			d.sched.push(w.wakeAt, int32(w.id))
			return
		}
		w.blocked = false
		d.blockedN--
	}
	d.admitWarp(w)
}

// admitWarp marks a live, unblocked warp issuable, or re-arms its timer for
// its revolver-ready cycle.
func (d *DPU) admitWarp(w *warp) {
	if w.nextIssueAt > d.cycle {
		d.sched.push(w.nextIssueAt, int32(w.id))
		return
	}
	d.issuable.set(w.id)
	d.issuableN++
	d.issuableLanesN += len(w.active)
}

// simtFastForward jumps the clock to the unified next-event time, bulk-
// accounting the skipped idle cycles.
func (d *DPU) simtFastForward(deadline uint64, memN, revN int) {
	next, _ := d.sched.nextAt()
	if at, ok := d.bank.NextDecisionAt(); ok {
		if c := d.cycleOf(at); c < next {
			next = c
		}
	}
	if next == neverWake {
		d.faultErr = fmt.Errorf("core: dpu %d deadlocked in SIMT mode at cycle %d", d.id, d.cycle)
		return
	}
	if next > deadline {
		next = deadline
	}
	// d.cycle+1 is consumed by the caller's increment; skip the rest.
	if next <= d.cycle+1 {
		return
	}
	skip := next - d.cycle - 1
	d.st.IssueSlots += float64(skip)
	d.st.AttributeIdle(float64(skip), memN, revN)
	d.st.RecordTLP(0, skip, d.cfg.TimelineWindow)
	d.cycle += skip
}

// issueWarp picks the next issuable warp round-robin, executes one vector
// instruction, and folds the warp's new state back into the scheduler.
func (d *DPU) issueWarp() {
	i := d.issuable.nextFrom(d.rr)
	if i < 0 {
		return
	}
	d.rr = i + 1
	if d.rr == len(d.warps) {
		d.rr = 0
	}
	w := d.warps[i]
	d.issuable.clear(i)
	d.issuableN--
	d.issuableLanesN -= len(w.active)
	d.executeVector(w, w.minPC, w.active)
	w.refreshLanes()
	switch {
	case w.aliveLanes == 0:
		d.aliveN--
	case w.blocked:
		d.blockedN++
		// The vector-memory sink arms the wake timer once the completion
		// time is known.
	default:
		d.sched.push(w.nextIssueAt, int32(w.id))
	}
}

// executeVector executes the µop at pc across the active lanes in lockstep.
func (d *DPU) executeVector(w *warp, pc uint16, active []*thread) {
	u := &d.uops[pc]
	d.st.VectorIssues++
	d.st.Instructions += uint64(len(active))
	d.st.Mix[u.class] += uint64(len(active))
	w.nextIssueAt = d.cycle + uint64(d.cfg.RevolverCycles)
	if d.cfg.TraceIssues {
		d.trace = append(d.trace, IssueEvent{Cycle: d.cycle, Tasklet: w.lanes[0].id, PC: pc, Op: u.op})
	}

	switch u.kind {
	case uopMem:
		d.executeVectorMem(w, u, active)
		return
	case uopDMA, uopACQUIRE, uopRELEASE:
		d.fault(active[0], d.prog.Instrs[pc], fmt.Errorf("%s is not supported by the SIMT vector engine", u.op))
		return
	}

	for _, t := range active {
		nextPC := pc + 1
		t.instret++ // before the µop, as execute counts: PERF 1 includes itself
		switch u.kind {
		case uopALU:
			b := uint32(u.imm)
			if !u.useImm() {
				b = d.read(t, u.rb)
			}
			result := aluOp(u.op, d.read(t, u.ra), b)
			d.write(t, u.rd, result)
			if u.cond.Eval(int32(result)) {
				nextPC = u.target
			}
		case uopMOV:
			result := d.read(t, u.ra)
			d.write(t, u.rd, result)
			if u.cond.Eval(int32(result)) {
				nextPC = u.target
			}
		case uopMOVI:
			d.write(t, u.rd, uint32(u.imm))
		case uopJcc:
			b := uint32(u.imm)
			if !u.useImm() {
				b = d.read(t, u.rb)
			}
			if jccTaken(u.op, d.read(t, u.ra), b) {
				nextPC = u.target
			}
		case uopJUMP:
			nextPC = u.target
		case uopCALL:
			d.write(t, isa.RegID(23), uint32(t.pc)+1)
			nextPC = u.target
		case uopJREG:
			dest := d.read(t, u.ra)
			if dest >= uint32(len(d.uops)) {
				d.fault(t, d.prog.Instrs[pc], fmt.Errorf("jreg out of range"))
				return
			}
			nextPC = uint16(dest)
		case uopSTOP:
			t.state = threadStopped
			continue
		case uopPERF:
			d.write(t, u.rd, d.perfCounter(t, u.imm))
		case uopFAULT:
			d.fault(t, d.prog.Instrs[pc], fmt.Errorf("software fault %d", u.imm))
			return
		}
		t.pc = nextPC
	}
}

// executeVectorMem performs a vector load/store: WRAM lanes complete in one
// cycle; MRAM lanes issue (optionally coalesced) bursts straight to the
// bank — the coalescer datapath of Fig 11(a), with no scratchpad staging.
func (d *DPU) executeVectorMem(w *warp, u *uop, active []*thread) {
	size := int(u.memSiz)
	isStore := u.isStore()
	now := d.nowTick()

	burstMask := ^uint32(d.cfg.BurstBytes - 1)
	bursts := d.vecBursts[:0]
	seen := d.vecSeen
	if d.cfg.SIMTCoalesce {
		if seen == nil {
			seen = map[uint32]bool{}
			d.vecSeen = seen
		} else {
			clear(seen)
		}
	}

	for _, t := range active {
		addr := d.read(t, u.ra) + uint32(u.imm)
		switch mem.Classify(addr, d.cfg.WRAMBytes) {
		case mem.SpaceWRAM:
			if isStore {
				if err := d.wram.Store(addr, size, d.read(t, u.rd)); err != nil {
					d.faultPC(t, err)
					return
				}
				d.st.WRAMWrites++
			} else {
				v, err := d.wram.Load(addr, size)
				if err != nil {
					d.faultPC(t, err)
					return
				}
				if u.signExt() {
					v = signExtendVal(v, size)
				}
				d.write(t, u.rd, v)
				d.st.WRAMReads++
			}
		case mem.SpaceMRAM:
			off := addr - mem.MRAMBase
			if isStore {
				if err := d.mram.Store(off, size, uint64(d.read(t, u.rd))); err != nil {
					d.faultPC(t, err)
					return
				}
			} else {
				v64, err := d.mram.Load(off, size)
				if err != nil {
					d.faultPC(t, err)
					return
				}
				v := uint32(v64)
				if u.signExt() {
					v = signExtendVal(v, size)
				}
				d.write(t, u.rd, v)
			}
			d.st.UncoalescedRequests++
			burst := off & burstMask
			if d.cfg.SIMTCoalesce {
				if !seen[burst] {
					seen[burst] = true
					bursts = append(bursts, burst)
				}
			} else {
				bursts = append(bursts, burst)
			}
		default:
			d.faultPC(t, fmt.Errorf("vector load/store to invalid address 0x%08x", addr))
			return
		}
		t.pc++
		t.instret++
	}

	d.vecBursts = bursts
	if len(bursts) == 0 {
		return
	}
	d.st.CoalescedRequests += uint64(len(bursts))
	tag := sinkVector.tag(d.allocXfer(int32(w.id), int32(len(bursts))))
	for _, b := range bursts {
		d.bank.Enqueue(b, isStore, now, tag)
	}
	w.blocked = true
	w.wakeAt = neverWake
}
