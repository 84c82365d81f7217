package core

import (
	"context"
	"errors"
	"math/bits"
	"math/rand"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/kbuild"
	"upim/internal/linker"
	"upim/internal/mem"
)

// drainIDs flattens one drainAt into ascending id order — the union of both
// masks, then the heap's ids beyond them — and returns the ready mask beside
// it. Both masks holding one id is a failure.
func drainIDs(t *testing.T, q *schedQueue, at uint64) ([]int32, uint64) {
	t.Helper()
	mask, ready, big := q.drainAt(at)
	if mask&ready != 0 {
		t.Fatalf("drain of %d: ids %#x in both masks", at, mask&ready)
	}
	var ids []int32
	for m := mask | ready; m != 0; m &= m - 1 {
		ids = append(ids, int32(bits.TrailingZeros64(m)))
	}
	return append(ids, big...), ready
}

// TestWheelMatchesHeap drives the mask wheel and the plain (cycle, id) heap it
// is an accelerator for with the same timer scripts — near timers, some of
// them ready timers, far timers beyond the wheel's horizon, timers armed in
// the past, ids above the mask width, a clock that both creeps and jumps to
// the next event — and requires the same ids in the same order out of every
// drain, each in the mask it was armed into: a ready timer on the wheel comes
// back in the ready mask, and every other timer outside it.
func TestWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		r := rand.New(rand.NewSource(seed))
		var q schedQueue
		var ref eventQueue
		cycle := uint64(r.Intn(1000))
		q.reset(cycle)
		// live maps an armed timer to whether it must drain as a ready timer.
		live := map[schedEvent]bool{}
		maxID := int32(24)
		if seed%2 == 0 {
			maxID = 100 // warps of a wide SIMT machine: ids beyond the mask
		}
		for step := 0; step < 3000; step++ {
			for n := r.Intn(4); n > 0; n-- {
				var at uint64
				near := false
				switch r.Intn(10) {
				case 0:
					at = cycle + uint64(wheelSlots+r.Intn(400)) // far: heap
				case 1:
					at = cycle - min(cycle, uint64(r.Intn(3))) // now or past
				default:
					at = cycle + 1 + uint64(r.Intn(14))
					near = true
				}
				e := schedEvent{at, r.Int31n(maxID)}
				if _, ok := live[e]; ok {
					continue // the scheduler never arms one (cycle, id) twice
				}
				if near && r.Intn(2) == 0 {
					// Wider ids and times past the window take the heap.
					live[e] = e.id < wheelIDs && e.at-q.base < wheelSlots
					q.pushReady(e.at, e.id)
				} else {
					q.push(e.at, e.id)
					live[e] = false
				}
				ref.push(e.at, e.id)
			}
			// processDue's loop.
			for {
				at, ok := q.nextAt()
				if len(ref) == 0 {
					if ok {
						t.Fatalf("seed %d: wheel reports a timer at %d, heap is empty", seed, at)
					}
					break
				}
				if !ok || at != ref[0].at {
					t.Fatalf("seed %d: nextAt = %d,%v, heap's earliest %d", seed, at, ok, ref[0].at)
				}
				if at > cycle {
					break
				}
				got, ready := drainIDs(t, &q, at)
				for i := 0; len(ref) > 0 && ref[0].at == at; i++ {
					e := ref.pop()
					wantReady := live[e]
					delete(live, e)
					if i >= len(got) || got[i] != e.id {
						t.Fatalf("seed %d cycle %d: drain of %d = %v, heap pops id %d at position %d", seed, cycle, at, got, e.id, i)
					}
					if gotReady := e.id < wheelIDs && ready&(1<<uint(e.id)) != 0; gotReady != wantReady {
						t.Fatalf("seed %d cycle %d: id %d drained at %d with ready = %v, armed with ready = %v", seed, cycle, e.id, at, gotReady, wantReady)
					}
					if i == len(got)-1 && len(ref) > 0 && ref[0].at == at {
						t.Fatalf("seed %d: drain of %d = %v is missing ids", seed, at, got)
					}
				}
			}
			q.advanceTo(cycle + 1)
			cycle++
			if at, ok := q.nextAt(); ok && at > cycle && r.Intn(3) == 0 {
				cycle = at // fast-forward
			}
		}
	}
}

// TestWheelRefusesToCoalesce: a wheel slot cannot hold one (cycle, id) twice,
// so arming it twice must be loud — through either mask, across the two, and
// through the heap's merge into a drain.
func TestWheelRefusesToCoalesce(t *testing.T) {
	mustPanic(t, "same near timer twice", func() {
		var q schedQueue
		q.reset(100)
		q.push(105, 3)
		q.push(105, 3)
	})
	mustPanic(t, "ready timer, then a wake", func() {
		var q schedQueue
		q.reset(100)
		q.pushReady(105, 3)
		q.push(105, 3)
	})
	mustPanic(t, "wake, then a ready timer", func() {
		var q schedQueue
		q.reset(100)
		q.push(105, 3)
		q.pushReady(105, 3)
	})
	mustPanic(t, "far timer meeting a near one", func() {
		var q schedQueue
		q.reset(0)
		q.push(100, 3) // heap
		q.advanceTo(90)
		q.push(100, 3) // wheel
		q.drainAt(100)
	})
}

// liveTimers counts the armed timers of both kinds per id.
func (q *schedQueue) liveTimers(perID []int) {
	for s := range q.slots {
		for _, m := range []uint64{q.slots[s], q.ready[s]} {
			for ; m != 0; m &= m - 1 {
				perID[bits.TrailingZeros64(m)]++
			}
		}
	}
	for _, e := range q.overflow {
		perID[e.id]++
	}
}

// TestAtMostOneLiveTimer is the premise of the mask wheel, checked cycle by
// cycle: a unit (a thread, or a warp under SIMT) never has two timers armed at
// once — of either kind, wake or ready — so no two live timers can share a
// (cycle, id) and a mask loses nothing. The
// kernels cover every site that arms a timer: revolver and forwarding
// re-issue, RF debt, DMA completions, MMU walks stacked on cache misses,
// I-fetch misses, spinning on locks, and vector memory.
func TestAtMostOneLiveTimer(t *testing.T) {
	type point struct {
		name  string
		obj   *linker.Object
		cfg   config.Config
		setup func(*DPU)
	}
	var pts []point
	for seed := int64(0); seed < 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		cfg := config.Default().WithILP([]string{"", "DRS", "D"}[seed])
		cfg.NumTasklets = []int{16, 3, 24}[seed]
		pts = append(pts, point{"random", randomKernel(r, 60), cfg, nil})
	}
	dma := config.Default()
	dma.MMU.Enable = true
	dma.MMU.Prefault = false
	pts = append(pts, point{"dma+mmu", dmaKernel(2), dma, func(d *DPU) { writeArgs(t, d, mem.MRAMBase) }})
	mutex := config.Default()
	mutex.NumTasklets = 8
	pts = append(pts, point{"mutex", mutexKernel(20), mutex, nil})
	cached := config.Default()
	cached.Mode = config.ModeCache
	cached.MMU.Enable = true
	cached.MMU.Prefault = false
	pts = append(pts, point{"cache+mmu", cacheSumKernel(), cached, func(d *DPU) { writeArgs(t, d, mem.MRAMBase, 2048) }})
	pts = append(pts, point{"simt", simtSumKernel(), simtConfig(64), func(d *DPU) { writeArgs(t, d, mem.MRAMBase, 512, mem.MRAMBase+1<<20) }})

	for _, p := range pts {
		d := buildDPU(t, p.obj, p.cfg, p.setup)
		perID := make([]int, p.cfg.NumTasklets)
		for {
			err := d.Run(context.Background(), 1)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrWatchdogExpired) {
				t.Fatalf("%s: %v", p.name, err)
			}
			clear(perID)
			d.sched.liveTimers(perID)
			for id, n := range perID {
				if n > 1 {
					t.Fatalf("%s: cycle %d: id %d has %d live timers", p.name, d.cycle, id, n)
				}
			}
			if d.cycle > testWatchdog {
				t.Fatalf("%s: did not finish", p.name)
			}
		}
	}
}

// TestCycleOfMatchesDivision holds cycleOf's compare-first answer to the
// ceiling division it stands for, around the clock and far from it.
func TestCycleOfMatchesDivision(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, tpc := range []Tick{1, 2, 96, 192, 384, 134_400} {
		for _, cycle := range []uint64{0, 1, 2, 1000, 1 << 20, 1 << 36} {
			d := &DPU{tpc: tpc, cycle: cycle}
			now := Tick(cycle) * tpc
			ticks := []Tick{0, 1, tpc - 1, tpc, tpc + 1, now + 1<<30}
			for k := Tick(0); k <= 3; k++ {
				for _, off := range []Tick{0, 1, tpc - 1} {
					ticks = append(ticks, now+k*tpc+off)
					if now >= k*tpc+off {
						ticks = append(ticks, now-k*tpc-off)
					}
				}
			}
			for i := 0; i < 200; i++ {
				ticks = append(ticks, Tick(r.Int63n(int64(now+4*tpc+1))))
			}
			for _, tk := range ticks {
				if got, want := d.cycleOf(tk), uint64((tk+tpc-1)/tpc); got != want {
					t.Fatalf("tpc %d cycle %d: cycleOf(%d) = %d, want %d", tpc, cycle, tk, got, want)
				}
			}
		}
	}
}

// pollCtx is a context that records the simulated cycle of every
// cancellation poll and reports cancellation from the cancelAt-th poll on.
type pollCtx struct {
	context.Context
	d        *DPU
	cancelAt int
	polls    []uint64
}

func (c *pollCtx) Err() error {
	c.polls = append(c.polls, c.d.cycle)
	if len(c.polls) >= c.cancelAt {
		return context.Canceled
	}
	return nil
}

// idlePoints build DPUs whose kernels spend nearly all their time inside
// fastForward, in each organisation: one tasklet waiting on its own DMAs,
// sixteen saturating the link, and one warp waiting out its vector loads.
func idlePoints(t *testing.T) map[string]func() *DPU {
	dma := func(tasklets int) func() *DPU {
		cfg := config.Default()
		cfg.NumTasklets = tasklets
		return func() *DPU {
			return buildDPU(t, dmaKernel(64), cfg, func(d *DPU) { writeArgs(t, d, mem.MRAMBase) })
		}
	}
	return map[string]func() *DPU{
		"1 tasklet":   dma(1),
		"16 tasklets": dma(16),
		"1 warp": func() *DPU {
			return buildDPU(t, simtSumKernel(), simtConfig(16), func(d *DPU) {
				writeArgs(t, d, mem.MRAMBase, 16384, mem.MRAMBase+1<<20)
			})
		},
	}
}

// TestCancellationInsideIdleStretch: kernels that spend nearly all their time
// inside fastForward still poll the context every ctxCheckInterval cycles or
// so, and a cancellation ends the run at the poll that sees it.
func TestCancellationInsideIdleStretch(t *testing.T) {
	for name, build := range idlePoints(t) {
		d := build()
		ctx := &pollCtx{Context: context.Background(), d: d, cancelAt: 4}
		err := d.Run(ctx, testWatchdog)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if len(ctx.polls) != ctx.cancelAt {
			t.Fatalf("%s: %d polls, want the run to end at poll %d", name, len(ctx.polls), ctx.cancelAt)
		}
		prev := uint64(0)
		for i, at := range ctx.polls {
			if at-prev > 2*ctxCheckInterval {
				t.Fatalf("%s: poll %d at cycle %d, %d cycles after the previous one (limit %d)",
					name, i, at, at-prev, 2*ctxCheckInterval)
			}
			prev = at
		}
		if d.Cycles() != prev {
			t.Fatalf("%s: run ended at cycle %d, the cancelling poll was at %d", name, d.Cycles(), prev)
		}

		// The same through a real cancelled context.
		d = build()
		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := d.Run(cancelled, testWatchdog); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		if d.Cycles() > 2*ctxCheckInterval {
			t.Fatalf("%s: cancelled run went on for %d cycles (limit %d)", name, d.Cycles(), 2*ctxCheckInterval)
		}
	}
}

// stuckDPU builds a state no kernel can reach (the core always arms a wake-up
// for a unit it blocks): every unit — tasklet or warp — blocked forever with
// no timer armed.
func stuckDPU(t *testing.T, cfg config.Config) *DPU {
	b := kbuild.New("stuck")
	b.Stop()
	d := buildDPU(t, b.MustBuild(), cfg, nil)
	d.sched.reset(d.cycle)
	for i := 0; i < d.aliveN; i++ {
		u := d.unitAt(i)
		u.state = unitBlocked
		u.wakeAt = neverWake
	}
	d.blockedN = d.aliveN
	return d
}

// bothOrganisations is the scalar pipeline and the vector engine at n units.
func bothOrganisations(n int) map[string]config.Config {
	scalar := config.Default()
	scalar.NumTasklets = n
	return map[string]config.Config{"scalar": scalar, "simt": simtConfig(n * scalar.SIMTWidth)}
}

// TestPollOwedInsideOneStretch pins the poll to the stretch itself. A DMA is
// at most 2 KiB, so in the kernels above a unit's timer ends every stretch
// well inside ctxCheckInterval and Run polls on the way back in; here one
// stretch is made far longer than the interval — a blocked unit with no
// timer and a bank queue of 100 000 bursts nobody waits for — and the polls
// must still come every ctxCheckInterval cycles, from inside it.
func TestPollOwedInsideOneStretch(t *testing.T) {
	for name, cfg := range bothOrganisations(1) {
		d := stuckDPU(t, cfg)
		d.bank.EnqueueRun(0, 100_000, false, 0, sinkEager.tag(0))

		ctx := &pollCtx{Context: context.Background(), d: d, cancelAt: 5}
		if err := d.Run(ctx, testWatchdog); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", name, err)
		}
		// A poll comes ctxCheckInterval cycles after the previous one, or a
		// cycle later when a bank-idle cycle was being jumped at that moment.
		prev := uint64(0)
		for i, at := range ctx.polls {
			if gap := at - prev; gap < ctxCheckInterval || gap > ctxCheckInterval+1 {
				t.Fatalf("%s: poll %d at cycle %d, %d after the previous one (polls: %v)", name, i, at, gap, ctx.polls)
			}
			prev = at
		}
	}
}

// TestDeadlockIsAFaultNotAHang: with every live unit blocked and nothing
// armed or queued that could wake one, the idle stretch has no end; the run
// must stop with the deadlock fault.
func TestDeadlockIsAFaultNotAHang(t *testing.T) {
	for name, cfg := range bothOrganisations(2) {
		err := stuckDPU(t, cfg).Run(context.Background(), testWatchdog)
		if err == nil || !strings.Contains(err.Error(), "deadlocked") {
			t.Fatalf("%s: err = %v, want the deadlock fault", name, err)
		}
		if errors.Is(err, ErrWatchdogExpired) {
			t.Fatalf("%s: deadlock reported as a watchdog expiry: %v", name, err)
		}
	}
}
