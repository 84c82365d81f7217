package dram

import (
	"fmt"

	"upim/internal/config"
	"upim/internal/stats"
)

// Tick aliases the simulator time unit.
type Tick = config.Tick

// run is a queued train of bursts: n bank transactions of cfg.BurstBytes each,
// at consecutive addresses inside one DRAM row, that entered the queue
// together (one DMA's share of a row, or a single burst). A run occupies one
// slab slot and one entry in the global and row FIFOs however long it is, and
// counts down as its bursts are serviced (the timing model looks at a
// burst's row, never its column, so the run need not remember where in the
// row it is). This is FR-FCFS over individual bursts, written down once per
// train: bursts that share an
// arrival tick and a row and sit next to each other in both queues are picked
// in address order by every rule the scheduler has — oldest first, oldest row
// hit first, the starvation cap — so the queue head's *current* burst is
// always the burst a per-burst queue would have at its head.
//
// Runs live in a slab owned by the Bank and are referenced by slot index: the
// enqueue/service hot path never heap-allocates.
type run struct {
	n       int32 // bursts not yet serviced; the run is done at zero
	write   bool
	arrival Tick
	tag     uint64 // caller-owned identifier returned with every completion
	row     uint32
	// refs counts the queues (global FIFO + row FIFO) still holding this
	// slot; the slot is recycled when both have skipped past it.
	refs uint8
}

// Completion reports one scheduled burst: the tag its run was enqueued with
// and the tick its data is available. Advance appends completions to a
// caller-owned buffer in scheduling order — a plain slice the caller ranges
// over, instead of a per-burst callback through a function pointer.
type Completion struct {
	Tag        uint64
	CompleteAt Tick
}

// Bank is the single-bank DRAM model.
type Bank struct {
	// timing in ticks
	tRCD, tRAS, tRP, tCL, tBL Tick
	tREFI, tRFC               Tick
	refresh                   bool
	frfcfs                    bool
	burstBytes                int
	rowBytes                  uint32

	openRow        int64 // -1 when precharged
	cmdReadyAt     Tick  // earliest tick the next column/row command may start
	lastActivateAt Tick  // for tRAS enforcement
	nextRefreshAt  Tick

	// starvationCap bounds how long the oldest request may be bypassed by
	// younger row hits (in ticks).
	starvationCap Tick

	// Request bookkeeping: runs in a slab with a free list, a global FIFO
	// plus per-row FIFOs of slot indices, both with lazy deletion, so FR-FCFS
	// picks are O(1) amortized even with thousands of queued bursts.
	slab      []run
	freeSlots []int32
	pending   int // queued bursts (not runs)
	globalQ   fifo
	// rowDir directly indexes a row's FIFO in rows[:nRows] (-1 = none): one
	// entry per DRAM row, so the enqueue/pick path never hashes. Row FIFOs
	// are recycled (capacity and all) across Reset. Between runs every entry
	// of rowDir's capacity reads -1: it is filled once when allocated, and
	// Reset clears only the entries of the rows the last run touched.
	rowDir []int32
	rows   []fifo
	nRows  int

	// The next scheduling decision, memoized between state changes: the DPU's
	// event clock polls NextDecisionAt every cycle, and a DMA train has
	// Advance make one decision per call, so neither may walk the queues.
	// nextAt is the decision point and nextOldest the oldest pending run;
	// nextPick is the run the decision picks when that is already known —
	// the run in service, continuing — and -1 when pick must be asked.
	// Enqueueing changes none of the three (the queues are FIFOs, and the
	// memo is only valid while a run is pending); a refresh and a finished
	// run invalidate it.
	nextValid  bool
	nextAt     Tick
	nextOldest int32
	nextPick   int32

	st *stats.DRAM
}

// fifo is a queue of run-slab indices with lazy deletion. A row FIFO records
// its row, the rowDir entry Reset clears.
type fifo struct {
	items []int32
	head  int
	row   uint32
}

func (f *fifo) push(i int32) { f.items = append(f.items, i) }

func (f *fifo) reset() {
	f.items = f.items[:0]
	f.head = 0
}

// peekPending returns the slot of the oldest run in f that still has bursts
// to service and Arrival <= t, or -1. Finished runs are skipped and
// unreferenced (recycling their slots once no queue holds them).
func (b *Bank) peekPending(f *fifo, t Tick) int32 {
	items, slab := f.items, b.slab
	for f.head < len(items) {
		i := items[f.head]
		r := &slab[i]
		if r.n == 0 {
			f.head++
			b.unref(i)
			continue
		}
		if r.arrival > t {
			return -1
		}
		return i
	}
	f.reset()
	return -1
}

// unref drops one queue reference from a finished run, recycling the slot
// when the last reference goes.
func (b *Bank) unref(i int32) {
	r := &b.slab[i]
	r.refs--
	if r.refs == 0 {
		b.freeSlots = append(b.freeSlots, i)
	}
}

// NewBank builds a bank from the configuration, recording statistics into st.
func NewBank(cfg config.Config, st *stats.DRAM) *Bank {
	b := &Bank{}
	b.Reset(cfg, st)
	return b
}

// Reset reinitializes the bank for cfg in place, keeping the burst slab, the
// queue storage and the row directory for reuse — the arena path's
// alternative to NewBank. A fresh bank and a reset bank are
// indistinguishable to the simulation.
func (b *Bank) Reset(cfg config.Config, st *stats.DRAM) {
	dt := cfg.DRAMTicksPerCycle()
	b.tRCD = Tick(cfg.TRCD) * dt
	b.tRAS = Tick(cfg.TRAS) * dt
	b.tRP = Tick(cfg.TRP) * dt
	b.tCL = Tick(cfg.TCL) * dt
	b.tBL = Tick(cfg.TBL) * dt
	b.tREFI = Tick(cfg.TREFI) * dt
	b.tRFC = Tick(cfg.TRFC) * dt
	b.refresh = cfg.RefreshEnable
	b.frfcfs = cfg.MemSchedulerFRFCFS
	b.burstBytes = cfg.BurstBytes
	b.rowBytes = uint32(cfg.RowBytes)
	b.openRow = -1
	b.cmdReadyAt = 0
	b.lastActivateAt = 0
	b.nextRefreshAt = 0
	if b.refresh {
		b.nextRefreshAt = b.tREFI
	}
	b.starvationCap = 2000 * dt
	b.slab = b.slab[:0]
	b.freeSlots = b.freeSlots[:0]
	b.pending = 0
	b.globalQ.reset()
	// Clear the touched rows before resizing: a shrinking directory must not
	// hide an entry the next growth would uncover.
	for i := 0; i < b.nRows; i++ {
		b.rowDir[b.rows[i].row] = -1
		b.rows[i].reset()
	}
	b.nRows = 0
	nDirRows := (cfg.MRAMBytes + cfg.RowBytes - 1) / cfg.RowBytes
	if cap(b.rowDir) < nDirRows {
		b.rowDir = make([]int32, nDirRows)
		for i := range b.rowDir {
			b.rowDir[i] = -1
		}
	} else {
		b.rowDir = b.rowDir[:nDirRows]
	}
	b.nextValid = false
	b.st = st
}

// BurstBytes returns the bank's transaction size.
func (b *Bank) BurstBytes() int { return b.burstBytes }

// Pending reports the number of enqueued, not-yet-scheduled bursts.
func (b *Bank) Pending() int { return b.pending }

// Enqueue adds one burst to the request queue: the run of one. Arrival must
// be non-decreasing across calls for FR-FCFS fairness to be meaningful (the
// simulator enqueues in simulation-time order).
func (b *Bank) Enqueue(addr uint32, write bool, arrival Tick, tag uint64) {
	b.enqueueRow(addr/b.rowBytes, 1, write, arrival, tag)
}

// EnqueueRun adds n bursts at addr, addr+BurstBytes, ... to the request
// queue, exactly as n Enqueue calls in address order would, as one queue
// entry per DRAM row touched. Every burst's Completion carries tag.
func (b *Bank) EnqueueRun(addr uint32, n int, write bool, arrival Tick, tag uint64) {
	bb := uint32(b.burstBytes)
	for n > 0 {
		row := addr / b.rowBytes
		// Bursts whose first byte lies in this row.
		inRow := int(((row+1)*b.rowBytes - addr + bb - 1) / bb)
		inRow = min(inRow, n)
		b.enqueueRow(row, int32(inRow), write, arrival, tag)
		addr += uint32(inRow) * bb
		n -= inRow
	}
}

// enqueueRow queues n bursts that all lie in row as one run.
func (b *Bank) enqueueRow(row uint32, n int32, write bool, arrival Tick, tag uint64) {
	var slot int32
	if k := len(b.freeSlots); k > 0 {
		slot = b.freeSlots[k-1]
		b.freeSlots = b.freeSlots[:k-1]
	} else {
		b.slab = append(b.slab, run{})
		slot = int32(len(b.slab) - 1)
	}
	b.slab[slot] = run{n: n, write: write, arrival: arrival, tag: tag, row: row, refs: 2}
	b.pending += int(n)
	b.globalQ.push(slot)

	ri := b.rowDir[row]
	if ri < 0 {
		if b.nRows < len(b.rows) {
			ri = int32(b.nRows)
		} else {
			b.rows = append(b.rows, fifo{})
			ri = int32(len(b.rows) - 1)
		}
		b.nRows++
		b.rowDir[row] = ri
		b.rows[ri].row = row
	}
	b.rows[ri].push(slot)
}

// NextDecisionAt returns the earliest tick a scheduling decision could be
// made (the bank's contribution to the DPU's next-event clock), or
// (0, false) when the queue is empty.
func (b *Bank) NextDecisionAt() (Tick, bool) {
	if b.pending == 0 || (!b.nextValid && !b.findNext()) {
		return 0, false
	}
	return b.nextAt, true
}

// findNext fills the decision memo from the queues; false means nothing is
// pending.
func (b *Bank) findNext() bool {
	oldest := b.peekPending(&b.globalQ, ^Tick(0))
	if oldest < 0 {
		return false // only lazily-deleted entries remained
	}
	b.nextAt = max(b.cmdReadyAt, b.slab[oldest].arrival)
	b.nextOldest, b.nextPick = oldest, -1
	b.nextValid = true
	return true
}

// Advance makes every scheduling decision whose decision point is <= now,
// appending a Completion (with its data-available tick, which may lie beyond
// now) to out for each scheduled burst, in scheduling order. It returns the
// extended buffer; pass a reused slice to keep the drain allocation-free.
func (b *Bank) Advance(now Tick, out []Completion) []Completion {
	for b.pending > 0 {
		if !b.nextValid && !b.findNext() {
			break
		}
		t := b.nextAt
		if t > now {
			break
		}
		if b.refresh && t >= b.nextRefreshAt {
			// Refresh: precharge all and stall tRFC.
			start := max(t, b.nextRefreshAt)
			b.openRow = -1
			b.cmdReadyAt = start + b.tRFC
			b.nextRefreshAt += b.tREFI
			b.nextValid = false
			b.st.Refreshes++
			continue
		}
		oldest, pick := b.nextOldest, b.nextPick
		if pick < 0 {
			pick = b.pick(t, oldest)
		}
		r := &b.slab[pick]
		out = b.service(r, t, out)
		if r.n == 0 {
			b.nextValid = false
			continue
		}
		// The picked run has bursts left, and that settles the next decision
		// without another walk: the oldest run is still the oldest, and the
		// picked run owns the open row at the head of its row FIFO, so every
		// policy picks it again — until the oldest run has waited past the
		// starvation cap, when pick must be asked (it answers "the oldest").
		arrival := b.slab[oldest].arrival
		b.nextAt = max(b.cmdReadyAt, arrival)
		b.nextPick = -1
		if b.nextAt-arrival <= b.starvationCap {
			b.nextPick = pick
		}
	}
	return out
}

// pick implements FR-FCFS with an age cap: the oldest row-hit request that
// has arrived, unless the globally oldest request has waited past the cap
// (or FR-FCFS is disabled), in which case strict FCFS order applies.
func (b *Bank) pick(t Tick, oldest int32) int32 {
	if !b.frfcfs || t-b.slab[oldest].arrival > b.starvationCap {
		return oldest
	}
	if b.openRow >= 0 {
		if ri := b.rowDir[b.openRow]; ri >= 0 {
			if hit := b.peekPending(&b.rows[ri], t); hit >= 0 {
				return hit
			}
		}
	}
	return oldest
}

// service schedules the next burst of r at decision tick t.
func (b *Bank) service(r *run, t Tick, out []Completion) []Completion {
	var complete Tick
	switch {
	case b.openRow == int64(r.row):
		// Row hit: column command, data after tCL, bus busy tBL.
		complete = t + b.tCL + b.tBL
		b.cmdReadyAt = t + b.tBL
		b.st.RowHits++
	case b.openRow == -1:
		// Bank precharged: activate then column command.
		b.lastActivateAt = t
		complete = t + b.tRCD + b.tCL + b.tBL
		b.cmdReadyAt = complete - b.tCL
		b.openRow = int64(r.row)
		b.st.RowEmpty++
	default:
		// Row conflict: wait out tRAS, precharge, activate, access.
		pre := t
		if b.lastActivateAt+b.tRAS > pre {
			pre = b.lastActivateAt + b.tRAS
		}
		b.lastActivateAt = pre + b.tRP
		complete = pre + b.tRP + b.tRCD + b.tCL + b.tBL
		b.cmdReadyAt = complete - b.tCL
		b.openRow = int64(r.row)
		b.st.RowMisses++
	}
	if r.write {
		b.st.WriteBursts++
		b.st.BytesWritten += uint64(b.burstBytes)
	} else {
		b.st.ReadBursts++
		b.st.BytesRead += uint64(b.burstBytes)
	}
	r.n--
	b.pending--
	return append(out, Completion{Tag: r.tag, CompleteAt: complete})
}

// Drain asserts the queue is empty (used at end of kernel to catch lost
// requests — a simulator self-check).
func (b *Bank) Drain() error {
	if b.pending != 0 {
		return fmt.Errorf("dram: %d bursts still pending at drain", b.pending)
	}
	return nil
}

// Link models the bandwidth-capped MRAM<->WRAM datapath (2 B per DPU cycle by
// default, i.e. 700 MB/s theoretical at 350 MHz — the resource Fig 13 scales).
// It serializes whole bursts in the order their DRAM data becomes available.
type Link struct {
	ticksPerByte float64
	freeAt       Tick
}

// NewLink builds the link from the configuration. Bandwidth is anchored to
// the 350 MHz reference clock so scaling the core frequency (the ILP "F"
// feature) does not inflate memory bandwidth.
func NewLink(cfg config.Config) *Link {
	l := &Link{}
	l.Reset(cfg)
	return l
}

// Reset reinitializes the link for cfg in place (arena reuse).
func (l *Link) Reset(cfg config.Config) {
	l.ticksPerByte = float64(config.TicksPerCycle(config.LinkReferenceFreqMHz)) /
		float64(cfg.LinkBytesPerCycle)
	l.freeAt = 0
}

// Reserve schedules bytes through the link once they are ready (data
// available from DRAM, or in WRAM for writes) and returns the tick the last
// byte clears the link.
func (l *Link) Reserve(ready Tick, bytes int) Tick {
	start := max(l.freeAt, ready)
	dur := Tick(float64(bytes)*l.ticksPerByte + 0.5)
	if dur == 0 {
		dur = 1
	}
	l.freeAt = start + dur
	return l.freeAt
}

// FreeAt reports when the link next becomes idle.
func (l *Link) FreeAt() Tick { return l.freeAt }
