package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"upim/internal/config"
	"upim/internal/isa"
	"upim/internal/stats"
)

// refCore is the reference scheduler that the fast one (Run and what it
// calls: processDue, the timer wheel, the issuable bitset, fastForward) is
// checked against. It is the seed core's loop: one iteration per simulated
// cycle advances the bank, wakes every blocked unit whose stall is over,
// takes a census of all units in id order (doing a cache-mode I-fetch where
// one is owed), then issues round-robin among the units the census found
// issuable, under the revolver, RF-parity, forwarding and issue-width rules.
// It keeps no timers and no counters across cycles.
//
// It shares with the fast core what an issue does — execute (a warp's
// executeVector) and the memory glue it drives — the bank, finish and the
// statistics record; nothing else of core.go runs. execute arms the fast
// core's timers as a side effect (blockUntil, dispatch); the reference clears
// them before each issue and reads a unit's state and wakeAt instead.
//
// It differs from a plain per-cycle loop in one listed way. Idle[] is a
// float sum, so how idle cycles are grouped into AttributeIdle calls shows
// in its last bits, and the reference groups them as the seed did: after a
// cycle with nothing issuable and no RF debt, each run of cycles in which
// no unit changes state and the bank decides nothing is one call, and each
// bank decision among them is a call of its own (run).
type refCore struct {
	d       *DPU
	simt    bool
	next    []uint64 // revolver/forwarding spacing: earliest cycle of each unit's next issue
	fetched []int    // cache mode: the PC each unit's last I-fetch was for, -1 for none
	ready   []bool   // the census: issuable this cycle and not yet picked
	rr      int
	rfDebt  int
}

func newRefCore(d *DPU) *refCore {
	r := &refCore{d: d, simt: d.cfg.Mode == config.ModeSIMT}
	r.relaunch()
	return r
}

// relaunch resets the reference's scheduling state after DPU.Relaunch.
func (r *refCore) relaunch() {
	n := len(r.d.threads)
	if r.simt {
		n = len(r.d.warps)
	}
	r.next = make([]uint64, n)
	r.fetched = slices.Repeat([]int{-1}, n)
	r.ready = make([]bool, n)
	r.rr, r.rfDebt = 0, 0
}

func (r *refCore) unit(i int) *unit {
	if r.simt {
		return &r.d.warps[i].unit
	}
	return &r.d.threads[i].unit
}

// canIssue: a running unit may issue once the revolver (or forwarding)
// spacing has passed and, under forwarding, every source register's
// producer has delivered.
func (r *refCore) canIssue(i int) bool {
	d := r.d
	if r.next[i] > d.cycle {
		return false
	}
	if d.cfg.Forwarding {
		t := d.threads[i]
		var buf [3]isa.RegID
		for _, reg := range d.prog.Instrs[t.pc].SrcRegs(buf[:0]) {
			if t.regReady[reg] > d.cycle {
				return false
			}
		}
	}
	return true
}

// due reports whether some unit would change state at this cycle: a blocked
// one whose stall is over, or a running one that may issue or owes an
// I-fetch.
func (r *refCore) due() bool {
	for i := range r.next {
		switch u := r.unit(i); u.state {
		case unitBlocked:
			if u.wakeAt <= r.d.cycle {
				return true
			}
		case unitRunning:
			if r.canIssue(i) || (r.d.icache != nil && r.fetched[i] != int(r.d.threads[i].pc)) {
				return true
			}
		}
	}
	return false
}

// attribute splits unused issue slots between the memory and revolver
// buckets by the blocked and waiting unit counts (Fig 6); with neither, the
// issuing unit's own revolver distance left them unused.
func (r *refCore) attribute(slots float64, memN, revN int) {
	st := &r.d.st
	if memN+revN == 0 {
		st.Idle[stats.IdleRevolver] += slots
		return
	}
	tot := float64(memN + revN)
	st.Idle[stats.IdleMemory] += slots * float64(memN) / tot
	st.Idle[stats.IdleRevolver] += slots * float64(revN) / tot
}

// run is Run's counterpart: it executes the kernel to completion, bounded by
// maxCycles beyond the current clock.
func (r *refCore) run(maxCycles uint64) error {
	d := r.d
	deadline := d.cycle + maxCycles
	width := float64(d.cfg.IssueWidth)
	window := d.cfg.TimelineWindow
	idle := false      // after a cycle with nothing issuable and no RF debt
	var skipped uint64 // skippable cycles not yet attributed
	var memN, revN int
	for ; d.cycle < deadline; d.cycle++ {
		now := Tick(d.cycle) * d.tpc
		at, pending := d.bank.NextDecisionAt()
		bankDue := pending && at <= now
		if idle {
			due := r.due()
			if !bankDue && !due {
				skipped++
				d.st.RecordTLP(0, 1, window)
				d.st.IssueSlots += width
				continue
			}
			// Each run of skippable cycles is one AttributeIdle call.
			r.attribute(float64(skipped)*width, memN, revN)
			skipped = 0
			// A bank decision among them is a call of its own.
			if !due {
				d.advanceBank(now)
				d.st.RecordTLP(0, 1, window)
				r.attribute(width, memN, revN)
				d.st.IssueSlots += width
				continue
			}
			idle = false
		}
		if bankDue {
			d.advanceBank(now)
		}

		// Wake, then the census in unit order, I-fetches included.
		issuable, alive, tlp := 0, 0, 0
		memN, revN = 0, 0
		for i := range r.next {
			u := r.unit(i)
			r.ready[i] = false
			if u.state == unitBlocked && u.wakeAt <= d.cycle {
				u.state = unitRunning
			}
			switch u.state {
			case unitStopped:
				continue
			case unitBlocked:
				memN++
				alive++
				continue
			}
			alive++
			if t := d.threads[i]; d.icache != nil && r.fetched[i] != int(t.pc) {
				r.fetched[i] = int(t.pc)
				ready := d.icache.Access(d.iramBacking(t.pc), false, now)
				if c := uint64((ready + d.tpc - 1) / d.tpc); c > d.cycle {
					u.state, u.wakeAt = unitBlocked, c
					memN++
					continue
				}
			}
			if r.ready[i] = r.canIssue(i); !r.ready[i] {
				revN++
				continue
			}
			issuable++
			tlp++
			if r.simt {
				tlp += len(d.warps[i].active) - 1 // parallelism in lanes
			}
		}
		if alive == 0 {
			d.finish()
			return d.faultErr
		}
		d.st.RecordTLP(tlp, 1, window)

		slots := d.cfg.IssueWidth
		for ; slots > 0 && r.rfDebt > 0; slots-- {
			d.st.Idle[stats.IdleRF]++
			r.rfDebt--
		}
		for ; slots > 0; slots-- {
			i := r.pick()
			if i < 0 {
				break
			}
			r.issue(i)
			d.st.Issued++
			if d.faultErr != nil {
				return d.faultErr
			}
		}
		if slots > 0 {
			r.attribute(float64(slots), memN, revN)
		}
		d.st.IssueSlots += width
		if idle = issuable == 0 && r.rfDebt == 0; idle && r.deadlocked() {
			return fmt.Errorf("core: dpu %d deadlocked at cycle %d (every live thread blocked with no pending events)", d.id, d.cycle+1)
		}
	}
	r.attribute(float64(skipped)*width, memN, revN)
	return fmt.Errorf("core: dpu %d exceeded the %d-cycle watchdog (deadlock or runaway kernel?): %w", d.id, maxCycles, ErrWatchdogExpired)
}

// pick takes the first issuable unit at or after the round-robin pointer.
func (r *refCore) pick() int {
	n := len(r.ready)
	for k := 0; k < n; k++ {
		if i := (r.rr + k) % n; r.ready[i] {
			r.ready[i] = false
			r.rr = (i + 1) % n
			return i
		}
	}
	return -1
}

// issue executes unit i's instruction and spaces its next issue.
func (r *refCore) issue(i int) {
	d := r.d
	d.sched.reset(d.cycle) // the fast core's timers, armed by execute and dispatch
	if r.simt {
		d.executeVector(d.warps[i])
	} else {
		t := d.threads[i]
		in := d.prog.Instrs[t.pc]
		conflict := !d.cfg.UnifiedRF && in.RFConflict()
		if conflict {
			r.rfDebt++
		}
		if d.cfg.TraceIssues {
			d.trace = append(d.trace, IssueEvent{Cycle: d.cycle, Tasklet: t.id, PC: t.pc, Op: in.Op, RFConflict: conflict})
		}
		d.execute(t, &d.uops[t.pc])
	}
	r.next[i] = d.cycle + uint64(d.cfg.RevolverCycles)
	if d.cfg.Forwarding {
		r.next[i] = d.cycle + 1
	}
}

// deadlocked: every live unit waits on a stall whose end nothing will ever
// tell it.
func (r *refCore) deadlocked() bool {
	if r.d.bank.Pending() > 0 {
		return false
	}
	for i := range r.next {
		if u := r.unit(i); u.state == unitRunning || (u.state == unitBlocked && u.wakeAt != neverWake) {
			return false
		}
	}
	return true
}

// refPoint is one FuzzCoreVsReference input, decoded into a configuration.
type refPoint struct {
	cfg      config.Config
	seed     int64
	iters    int32
	launches int
}

// decodeRefPoint maps raw fuzz arguments onto a valid point: 1–24 tasklets
// and any ILP subset of D, R, S and F in the scalar organisations, MMU on or
// off with demand paging; 1–128 tasklets in warps of 1–16 lanes under SIMT,
// frequency scaling the only feature there.
func decodeRefPoint(seed int64, units, ilp, mode, width, iters uint8, mmu, window bool, launches uint8) refPoint {
	cfg := config.Default()
	cfg.Mode = []config.Mode{config.ModeScratchpad, config.ModeCache, config.ModeSIMT}[mode%3]
	var feats string
	for b, f := range "DRSF" {
		if ilp&(1<<b) != 0 && (cfg.Mode != config.ModeSIMT || f == 'F') {
			feats += string(f)
		}
	}
	cfg = cfg.WithILP(feats)
	cfg.NumTasklets = 1 + int(units)%24
	if cfg.Mode == config.ModeSIMT {
		cfg.NumTasklets = 1 + int(units)%128
		cfg.SIMTWidth = []int{1, 2, 3, 4, 16}[width%5]
		cfg.SIMTCoalesce = width&8 != 0
	} else if mmu {
		cfg.MMU.Enable = true
		cfg.MMU.Prefault = false
		cfg.MMU.TLBSize >>= width % 5 // down to one entry: walks on mapped pages
	}
	if window {
		cfg.TimelineWindow = 64
	}
	cfg.TraceIssues = true
	return refPoint{cfg: cfg, seed: seed, iters: 1 + int32(iters)%48, launches: 1 + int(launches)%2}
}

// checkCoreVsReference runs the point on the fast core and on the reference
// and requires the same outcome: the same error, or the same cycle count,
// statistics (every counter by bit pattern, the TLP histogram and timeline),
// issue trace and WRAM contents.
func checkCoreVsReference(t *testing.T, p refPoint) {
	t.Helper()
	obj := modeKernel(rand.New(rand.NewSource(p.seed)), p.iters, p.cfg.Mode)
	fast := buildDPU(t, obj, p.cfg, nil)
	ref := buildDPU(t, obj, p.cfg, nil)
	rc := newRefCore(ref)
	for l := 0; l < p.launches; l++ {
		if l > 0 {
			fast.Relaunch()
			ref.Relaunch()
			rc.relaunch()
		}
		ferr := fast.Run(context.Background(), testWatchdog)
		rerr := rc.run(testWatchdog)
		if fmt.Sprint(ferr) != fmt.Sprint(rerr) {
			t.Fatalf("launch %d: fast core: %v; reference: %v", l, ferr, rerr)
		}
		if ferr != nil {
			return
		}
	}
	if fast.Cycles() != ref.Cycles() {
		t.Fatalf("cycles: fast %d, reference %d", fast.Cycles(), ref.Cycles())
	}
	fc, rc2 := fast.Stats().Counters(), ref.Stats().Counters()
	for i := range fc {
		if math.Float64bits(fc[i].Value) != math.Float64bits(rc2[i].Value) {
			t.Fatalf("counter %s: fast %v, reference %v", fc[i].Name, fc[i].Value, rc2[i].Value)
		}
	}
	if !reflect.DeepEqual(fast.Stats(), ref.Stats()) {
		t.Fatalf("statistics differ beyond Counters():\nfast %+v\nref  %+v", fast.Stats(), ref.Stats())
	}
	ft, rt := fast.Trace(), ref.Trace()
	if i := firstDiff(ft, rt); i >= 0 {
		t.Fatalf("issue traces part at event %d of %d/%d: fast %+v, reference %+v",
			i, len(ft), len(rt), at(ft, i), at(rt, i))
	}
	fw, rw := make([]byte, p.cfg.WRAMBytes), make([]byte, p.cfg.WRAMBytes)
	if fast.WRAM().ReadBytes(0, fw) != nil || ref.WRAM().ReadBytes(0, rw) != nil || !slices.Equal(fw, rw) {
		t.Fatal("WRAM contents differ")
	}
}

func firstDiff(a, b []IssueEvent) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return min(len(a), len(b))
	}
	return -1
}

func at(s []IssueEvent, i int) any {
	if i < len(s) {
		return s[i]
	}
	return "(end)"
}

// FuzzCoreVsReference holds the fast core to the reference on modeKernel
// programs (randomKernel's shape) across tasklet counts, ILP subsets,
// organisations, the MMU, relaunches and the TLP timeline. Its seed corpus is
// a grid — every organisation, every ILP subset the organisation allows, MMU
// on and off, at three tasklet counts — plus two SIMT seeds with 70 and 128
// one-lane warps, the inputs with more than 64 scheduling units, where the
// timer heap's id path and the issuable set's second word run, and one seed
// in which an instruction stalls twice.
func FuzzCoreVsReference(f *testing.F) {
	// seed, units, ilp, mode, width, iters, mmu, window, launches
	for mode := uint8(0); mode < 3; mode++ {
		for ilp := uint8(0); ilp < 16; ilp++ {
			if mode == 2 && ilp&7 != 0 {
				continue // SIMT takes frequency scaling only,
			}
			mmus := []bool{false, true}
			if mode == 2 {
				mmus = mmus[:1] // and no MMU
			}
			for _, units := range []uint8{0, 10, 23} {
				for _, mmu := range mmus {
					f.Add(int64(ilp)*31+int64(units), units, ilp, mode, units, uint8(12), mmu, units == 10, units)
				}
			}
		}
	}
	f.Add(int64(8), uint8(69), uint8(0), uint8(2), uint8(0), uint8(12), false, false, uint8(0))
	f.Add(int64(9), uint8(127), uint8(8), uint8(2), uint8(10), uint8(8), false, true, uint8(1))
	// Cache mode, MMU with an 8-entry TLB: one access stalls on a walk, then on a later D-cache miss.
	f.Add(int64(115), uint8(68), uint8(1), uint8(1), uint8(21), uint8(0), true, true, uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, units, ilp, mode, width, iters uint8, mmu, window bool, launches uint8) {
		checkCoreVsReference(t, decodeRefPoint(seed, units, ilp, mode, width, iters, mmu, window, launches))
	})
}
