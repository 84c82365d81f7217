// Package core implements the paper's primary contribution: the cycle-level
// performance model of the UPMEM DPU. The DPU is a 14-stage in-order
// fine-grained-multithreaded scalar core with:
//
//   - the "revolver" scheduling rule: two consecutive instructions of the
//     same tasklet must issue >= 11 cycles apart (Section II-A);
//   - an odd/even split register file whose structural hazard costs an extra
//     issue slot when an instruction reads two distinct same-parity GPRs;
//   - single-cycle WRAM/IRAM scratchpads;
//   - a DMA engine staging MRAM<->WRAM transfers through a bandwidth-capped
//     link backed by the DDR4 bank model (internal/dram);
//   - the ILP case-study extensions (data forwarding, unified RF, 2-way
//     superscalar, frequency scaling — Fig 12);
//   - the cache-centric organisation (I/D caches in front of a DRAM-backed
//     flat space — Fig 14(b)) and the MMU of case study 3;
//   - the SIMT vector-engine organisation (Fig 11): the same pipeline
//     issuing a vector — warps as the scheduler's units, the interpreter run
//     per active lane, and a coalescer in front of the bank (simt.go).
//
// Functional execution happens at issue: the architectural state is updated
// immediately and timing is modeled by blocking the issuing tasklet.
//
// These implementation decisions make the model fast enough for sweep-style
// characterization without moving a single simulated cycle:
//
//   - Decode-once µop tables (uop.go): at program load every instruction's
//     static metadata — dispatch kind, mix class, source/dest registers,
//     RF-conflict parity, memory access shape — is precomputed into a flat
//     µop slice shared by all DPUs running the program, so the issue path
//     never re-derives it through switch chains.
//   - Event-driven scheduling: what is scheduled is a unit — a thread, or a
//     warp under SIMT — and one run loop serves every organisation. Unit
//     states are tracked by incrementally maintained counters
//     (alive/blocked/issuable) plus a (cycle, id)-ordered timer queue — a
//     64-cycle wheel of id masks over a heap for far timers (schedQueue) —
//     so a simulated cycle costs O(state transitions) instead of O(units).
//     A unit whose next issue cycle is known when it issues sleeps on a
//     ready timer, and the ready timers due in a cycle join the issuable
//     set as one mask; only wakes and I-fetches are reconsidered per unit.
//   - Idle stretches stay in one loop (fastForward): when nothing can issue,
//     the clock jumps to the unified next-event time (min of unit timers,
//     the DRAM bank's next decision, and the watchdog deadline), and while
//     that event is only the bank's — a tasklet waiting out its own DMA, a
//     warp its vector load — the bank's decisions are made and the cycles
//     accounted right there, call for call as Run's loop would, until a
//     unit's timer is due.
//   - The memory side costs per event, not per burst: a DMA enters the bank
//     as one run per DRAM row it touches (dram.EnqueueRun) with one transfer
//     record routed by tag, and an instruction fetch from the line the
//     tasklet's previous fetch used skips the I-cache's set hash and way
//     search (cache.AccessFrom).
//
// The committed tiny-scale reference artifacts (internal/figures/refdata)
// are the equivalence oracle for any change here: the scheduler is required
// to reproduce the per-cycle census semantics exactly, including the
// fractional idle attribution and TLP sampling. internal/prim's
// testdata/stats.golden holds every raw counter of a design matrix exactly.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"

	"upim/internal/cache"
	"upim/internal/config"
	"upim/internal/dram"
	"upim/internal/isa"
	"upim/internal/linker"
	"upim/internal/mem"
	"upim/internal/mmu"
	"upim/internal/stats"
)

// Tick aliases the simulator time unit.
type Tick = config.Tick

const neverWake = math.MaxUint64

type unitState uint8

const (
	unitRunning unitState = iota
	unitBlocked           // waiting on memory (DMA, cache fill, fault, vector load/store)
	unitStopped
)

// unit is the scheduling record of one schedulable unit — a tasklet, or under
// SIMT a warp (simt.go). It is all the run loop, the timer queue and the
// completion sinks know of what they schedule; what a unit does with its
// issue slot is its owner's business (execute, executeVector).
type unit struct {
	id    int
	state unitState

	// wakeAt is the cycle a blocked unit becomes schedulable again;
	// neverWake while the completion time is not yet known.
	wakeAt uint64
	// nextIssueAt enforces the revolver distance (or back-to-back issue
	// under forwarding).
	nextIssueAt uint64
}

type thread struct {
	// unit schedules the tasklet. A SIMT lane is scheduled through its warp:
	// of its own record only id and the stopped state are live.
	unit
	pc   uint16
	regs [isa.NumGPR]uint32

	// regReady tracks per-register producer completion cycles when data
	// forwarding ("D") is enabled.
	regReady [isa.NumGPR]uint64
	// fetchPC/fetchReady memoize the I-cache lookup for the current fetch
	// in cache mode; fetchLine is where that fetch found its line, which is
	// where the next one most likely lands (cache.AccessFrom).
	fetchPC    int
	fetchReady uint64
	fetchLine  cache.LineRef
	// instret counts instructions retired by this tasklet (PERF source).
	instret uint64
}

// FaultError describes a simulation fault raised by the running program.
type FaultError struct {
	DPU     int
	Tasklet int
	PC      uint16
	Instr   isa.Instruction
	Err     error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("core: dpu %d tasklet %d at pc %d (%s): %v",
		e.DPU, e.Tasklet, e.PC, e.Instr, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// IssueEvent is one trace record (enabled via Config.TraceIssues).
type IssueEvent struct {
	Cycle      uint64
	Tasklet    int
	PC         uint16
	Op         isa.Opcode
	RFConflict bool
}

// traceMaxPrealloc caps the up-front issue-trace allocation: the trace is
// sized from the watchdog bound at Run time (see Config.TraceIssues for the
// memory cost), but never more than this many events ahead of need.
const traceMaxPrealloc = 1 << 20

// schedEvent is one entry of the scheduler's timer queue: at cycle `at`,
// reconsider unit `id`.
type schedEvent struct {
	at uint64
	id int32
}

func (e schedEvent) before(o schedEvent) bool {
	return e.at < o.at || (e.at == o.at && e.id < o.id)
}

// eventQueue is a binary min-heap ordered by (at, id). The id tiebreak makes
// same-cycle processing follow unit-index order — exactly the order the
// per-cycle census used to touch shared state (I-cache fetches) in, which
// the refdata oracle holds us to.
type eventQueue []schedEvent

func (q *eventQueue) push(at uint64, id int32) {
	s := append(*q, schedEvent{at, id})
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !s[i].before(s[p]) {
			break
		}
		s[i], s[p] = s[p], s[i]
		i = p
	}
	*q = s
}

func (q *eventQueue) pop() schedEvent {
	s := *q
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	s = s[:last]
	*q = s
	i := 0
	for {
		l, r, m := 2*i+1, 2*i+2, i
		if l < len(s) && s[l].before(s[m]) {
			m = l
		}
		if r < len(s) && s[r].before(s[m]) {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// wheelSlots is the timing wheel's horizon in cycles. The dominant timer
// pattern — revolver re-issue at +11 cycles, cache-fill and short DMA wakes —
// lands within it; rarer far wakes (link-saturated DMA trains) overflow to a
// binary heap.
const wheelSlots = 64

// wheelIDs is how many unit ids a wheel slot can hold: one bit each.
const wheelIDs = 64

// schedQueue is the scheduler's timer queue: a 64-slot timing wheel over the
// next wheelSlots cycles plus an overflow min-heap. A wheel slot is a 64-bit
// mask of the ids armed for its cycle, so push is two ORs, the next event
// time is one rotate+tzcnt, and a drain walks set bits — which is ascending
// id order, the same-cycle processing order the refdata oracle holds us to,
// with nothing to sort. Far timers and ids >= wheelIDs take the heap, whose
// (cycle, id) order merges into a drain (drainAt).
//
// A slot holds two masks, one per kind of timer. slots holds the timers
// whose firing has something to decide — a blocked unit's wake, a cache-mode
// I-fetch — and each is visited in id order (timerDue). ready holds the
// timers of running units whose issue cycle was known when they were armed
// (pushReady); the scheduler admits a whole ready mask at once. A ready
// timer that does not fit the wheel goes to the heap and is drained as an
// ordinary one: timerDue admits the unit all the same.
//
// Window invariant: every wheel entry's time lies in [base, base+wheelSlots),
// so a slot holds exactly one distinct cycle.
//
// The masks cannot hold the same (cycle, id) twice, in one mask or across
// both. The scheduler never needs them to: a unit has at most one live timer
// (it is armed when the previous one is drained, or at an issue or
// completion while none is armed), and arming panics if that ever stops
// being true rather than coalesce two timers into one.
type schedQueue struct {
	base     uint64 // all wheel entries have time >= base
	occ      uint64 // bit (t & 63) set => slot for time t non-empty, in either mask
	slots    [wheelSlots]uint64
	ready    [wheelSlots]uint64
	overflow eventQueue
	big      []int32 // drainAt scratch for ids >= wheelIDs, reused
}

// reset empties the queue and re-anchors the window at `base`, keeping the
// heap's capacity (arena reuse).
func (q *schedQueue) reset(base uint64) {
	*q = schedQueue{base: base, overflow: q.overflow[:0], big: q.big[:0]}
}

// push arms a timer: reconsider unit id at cycle `at`.
func (q *schedQueue) push(at uint64, id int32) { q.arm(&q.slots, at, id) }

// pushReady arms a ready timer: running unit id becomes issuable at cycle
// `at`, with nothing left to decide until then.
func (q *schedQueue) pushReady(at uint64, id int32) { q.arm(&q.ready, at, id) }

// arm sets id's bit in masks' slot for `at`, or hands the timer to the heap.
func (q *schedQueue) arm(masks *[wheelSlots]uint64, at uint64, id int32) {
	if at-q.base < wheelSlots && uint32(id) < wheelIDs {
		s := at & (wheelSlots - 1)
		bit := uint64(1) << uint(id)
		if (q.slots[s]|q.ready[s])&bit != 0 {
			panic(fmt.Sprintf("core: timer for id %d at cycle %d armed twice", id, at))
		}
		masks[s] |= bit
		q.occ |= 1 << s
		return
	}
	q.overflow.push(at, id)
}

// nextAt returns the earliest armed timer's cycle.
func (q *schedQueue) nextAt() (uint64, bool) {
	at := uint64(neverWake)
	if q.occ != 0 {
		rot := bits.RotateLeft64(q.occ, -int(q.base&(wheelSlots-1)))
		at = q.base + uint64(bits.TrailingZeros64(rot))
	}
	if len(q.overflow) > 0 && q.overflow[0].at < at {
		at = q.overflow[0].at
	}
	return at, at != neverWake
}

// drainAt removes every id armed for exactly cycle `at`. It returns the
// wheel's ready timers as the mask ready, and the rest as a mask of the ids
// below wheelIDs plus a slice of the others in ascending order: walking
// mask's set bits and then the slice visits all of them in ascending id
// order. The slice is scratch owned by q, valid until the next drainAt.
func (q *schedQueue) drainAt(at uint64) (mask, ready uint64, big []int32) {
	// at-q.base >= wheelSlots also covers at < base (timers armed in the
	// past live in the heap).
	if s := at & (wheelSlots - 1); at-q.base < wheelSlots && q.occ&(1<<s) != 0 {
		mask, ready = q.slots[s], q.ready[s]
		q.slots[s], q.ready[s] = 0, 0
		q.occ &^= 1 << s
	}
	big = q.big[:0]
	for len(q.overflow) > 0 && q.overflow[0].at == at {
		// The heap pops one cycle's ids in ascending order.
		if id := q.overflow.pop().id; uint32(id) < wheelIDs {
			if (mask|ready)&(1<<uint(id)) != 0 {
				panic(fmt.Sprintf("core: timer for id %d at cycle %d armed twice", id, at))
			}
			mask |= 1 << uint(id)
		} else {
			big = append(big, id)
		}
	}
	q.big = big
	return mask, ready, big
}

// advanceTo slides the window start forward to `base` (monotone). Callers
// advance it only after draining every event below it.
func (q *schedQueue) advanceTo(base uint64) {
	if base > q.base {
		q.base = base
	}
}

// bitset tracks the issuable unit set; nextFrom implements the round-robin
// pick in O(words) instead of a per-unit scan.
type bitset struct {
	words []uint64
	n     int
}

func (b *bitset) reset(n int) {
	w := (n + 63) / 64
	if cap(b.words) < w {
		b.words = make([]uint64, w)
	} else {
		b.words = b.words[:w]
		clear(b.words)
	}
	b.n = n
}

func (b *bitset) set(i int)   { b.words[i>>6] |= 1 << (i & 63) }
func (b *bitset) clear(i int) { b.words[i>>6] &^= 1 << (i & 63) }

// nextFrom returns the first set index >= start, wrapping past the end, or
// -1 when the set is empty.
func (b *bitset) nextFrom(start int) int {
	nw := len(b.words)
	if nw == 0 {
		return -1
	}
	w0 := start >> 6
	if m := b.words[w0] &^ (1<<(start&63) - 1); m != 0 {
		return w0<<6 + bits.TrailingZeros64(m)
	}
	for k := 1; k < nw; k++ {
		w := w0 + k
		if w >= nw {
			w -= nw
		}
		if m := b.words[w]; m != 0 {
			return w<<6 + bits.TrailingZeros64(m)
		}
	}
	if m := b.words[w0] & (1<<(start&63) - 1); m != 0 {
		return w0<<6 + bits.TrailingZeros64(m)
	}
	return -1
}

// DPU is one simulated DRAM Processing Unit.
type DPU struct {
	cfg  config.Config
	id   int
	prog *linker.Program
	uops []uop // decode-once static metadata, indexed by PC

	wram   *mem.WRAM
	mram   *mem.MRAM
	atomic *mem.Atomic
	bank   *dram.Bank
	link   *dram.Link
	mmu    *mmu.MMU
	icache *cache.Cache
	dcache *cache.Cache

	// threads point into threadSlab, a value slab reused across arena
	// reinits; the slab is only resized before any pointers are taken.
	threads    []*thread
	threadSlab []thread
	cycle      uint64
	tpc        Tick // ticks per DPU cycle

	// fwdLat holds the forwarding latencies indexed by µop latency selector.
	fwdLat [numLatSels]uint64
	// issueGap is the distance to a unit's next issue: the revolver's, or one
	// cycle under forwarding.
	issueGap uint64

	// Event-driven scheduler state, over units (see unitAt).
	sched     schedQueue
	issuable  bitset
	issuableN int // members of the issuable set
	aliveN    int // non-stopped units
	blockedN  int // blocked units
	// issuableLanesN sums the active-lane counts of issuable warps: the TLP
	// sample under SIMT, where parallelism is counted in lanes.
	issuableLanesN int

	// rfDebt counts issue slots still owed to the odd/even RF hazard.
	rfDebt int
	rr     int // round-robin scan start

	// DMA/fill completion routing: a burst's bank tag names its sink (see
	// sinkKind) — for DMA and vector bursts together with the slot of its
	// transfer in xfers, the slab of in-flight multi-burst transfers. Every
	// burst of a transfer carries the same tag, so issuing a DMA costs one
	// slot, not one record per burst; no hashing, closures or map churn on
	// the DMA hot path. Completions are drained from the bank into compBuf
	// and dispatched by a kind switch.
	xfers     []xfer
	freeXfers []int32
	compBuf   []dram.Completion
	// eagerDone holds the completion tick of the last eager burst
	// (enqueueEager's synchronous drains).
	eagerDone Tick
	// dmaBuf is the reusable staging buffer for DMA functional copies.
	dmaBuf []byte
	// vecBursts gathers the bank requests of the vector load/store being
	// issued (SIMT mode; see laneRequest).
	vecBursts []uint32

	// SIMT state (empty in the scalar modes); warps point into warpSlab,
	// reused like threadSlab.
	warps    []*warp
	warpSlab []warp

	st    stats.DPU
	trace []IssueEvent

	faultErr error

	// arena is the owning Arena, nil for standalone DPUs; set by NewInArena
	// and cleared by Release.
	arena *Arena
	// released marks a shell sitting in an arena free list. Release panics
	// when it is already set (double-Release) and Run refuses a released
	// shell (use-after-Release) — both would silently corrupt the free list
	// or read storage the next NewInArena is about to recycle.
	released bool
}

// sinkKind selects how a burst completion is routed (see dispatch); it is
// the high half of the burst's bank tag, the low half being the xfer slot.
// Typed tags replace per-transfer closures: dispatch is a switch over an
// integer instead of an indirect call through a captured environment.
type sinkKind uint32

const (
	sinkEager  sinkKind = iota // synchronous fill/PTE-walk: record the tick
	sinkDMA                    // scratchpad DMA: cross the link, wake the tasklet
	sinkVector                 // SIMT vector memory: straight from the bank, wake the warp
)

// tag builds the bank tag for a burst of transfer slot xi.
func (k sinkKind) tag(xi int32) uint64 { return uint64(k)<<32 | uint64(uint32(xi)) }

// xfer tracks one in-flight multi-burst transfer. owner is the id of the unit
// waiting for it.
type xfer struct {
	owner     int32
	remaining int32
	lastDone  Tick
}

// allocXfer takes a transfer slot from the free list or grows the slab.
func (d *DPU) allocXfer(owner int32, remaining int32) int32 {
	if n := len(d.freeXfers); n > 0 {
		xi := d.freeXfers[n-1]
		d.freeXfers = d.freeXfers[:n-1]
		d.xfers[xi] = xfer{owner: owner, remaining: remaining}
		return xi
	}
	d.xfers = append(d.xfers, xfer{owner: owner, remaining: remaining})
	return int32(len(d.xfers) - 1)
}

// New builds a DPU executing prog under cfg. The program must have been
// linked for the same mode.
func New(id int, prog *linker.Program, cfg config.Config) (*DPU, error) {
	d := &DPU{}
	if err := d.reinit(id, prog, cfg); err != nil {
		return nil, err
	}
	return d, nil
}

// reinit (re)initializes a DPU shell in place for a new run, reusing every
// backing allocation the shell already owns — the thread and warp slabs, the
// scheduler queue and bitset, the xfer slab, the memories and the bank
// — so an arena-recycled DPU allocates nothing in steady state. Fresh DPUs
// (New) and recycled ones (NewInArena) share this single code path, which is
// what makes "a reset DPU is bit-identical to a fresh one" checkable.
func (d *DPU) reinit(id int, prog *linker.Program, cfg config.Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if prog.Mode != cfg.Mode {
		return fmt.Errorf("core: program %q linked for %v but DPU configured for %v",
			prog.Name, prog.Mode, cfg.Mode)
	}
	d.cfg = cfg
	d.id = id
	d.prog = prog
	d.uops = uopsFor(prog)
	d.tpc = cfg.DPUTicksPerCycle()
	d.fwdLat = [numLatSels]uint64{
		latALU:    uint64(cfg.FwdLatALU),
		latMulDiv: uint64(cfg.FwdLatMulDiv),
		latLoad:   uint64(cfg.FwdLatLoad),
	}
	d.issueGap = uint64(cfg.RevolverCycles)
	if cfg.Forwarding {
		d.issueGap = 1
	}
	d.cycle = 0
	d.rfDebt, d.rr = 0, 0
	d.faultErr = nil
	d.eagerDone = 0
	// Timeline and trace escape through Stats()/Trace() value copies, so
	// their backing arrays must not be reused across runs; zeroing the whole
	// record drops them (see ARCHITECTURE.md "Memory discipline").
	d.st = stats.DPU{}
	d.trace = nil
	d.xfers = d.xfers[:0]
	d.freeXfers = d.freeXfers[:0]
	d.compBuf = d.compBuf[:0]
	d.vecBursts = d.vecBursts[:0]

	if d.wram == nil {
		d.wram = mem.NewWRAM(cfg.WRAMBytes)
		d.mram = mem.NewMRAM(cfg.MRAMBytes)
		d.atomic = mem.NewAtomic(cfg.AtomicLocks)
		d.bank = dram.NewBank(cfg, &d.st.DRAM)
		d.link = dram.NewLink(cfg)
	} else {
		d.wram.Reset(cfg.WRAMBytes)
		d.mram.Reset(cfg.MRAMBytes)
		d.atomic.Reset(cfg.AtomicLocks)
		d.bank.Reset(cfg, &d.st.DRAM)
		d.link.Reset(cfg)
	}
	// The MMU and caches are small and config-shaped; rebuild them fresh.
	d.mmu = nil
	if cfg.MMU.Enable {
		d.mmu = mmu.New(cfg.MMU, (*ptWalker)(d), &d.st.MMU)
	}
	d.icache, d.dcache = nil, nil
	if cfg.Mode == config.ModeCache {
		var err error
		if d.icache, err = cache.New(cfg.ICache, (*fillBackend)(d), &d.st.ICache); err != nil {
			return err
		}
		if d.dcache, err = cache.New(cfg.DCache, (*fillBackend)(d), &d.st.DCache); err != nil {
			return err
		}
	}
	if err := d.load(); err != nil {
		return err
	}
	d.resetThreads()
	return nil
}

// load copies the program's initialized static segments into their linked
// locations (WRAM or the DRAM-backed static window).
func (d *DPU) load() error {
	for _, seg := range d.prog.StaticSegments() {
		switch mem.Classify(seg.Addr, d.cfg.WRAMBytes) {
		case mem.SpaceWRAM:
			if err := d.wram.WriteBytes(seg.Addr-mem.WRAMBase, seg.Init); err != nil {
				return err
			}
		case mem.SpaceMRAM:
			if err := d.mram.WriteBytes(seg.Addr-mem.MRAMBase, seg.Init); err != nil {
				return err
			}
			if d.mmu != nil {
				d.mmu.MapRange(seg.Addr-mem.MRAMBase, len(seg.Init))
			}
		default:
			return fmt.Errorf("core: segment %q at 0x%08x in unsupported space", seg.Name, seg.Addr)
		}
	}
	return nil
}

// resetThreads rebuilds the architectural thread state and re-seeds the
// scheduler: every unit gets a timer at the current cycle, so the first loop
// iteration classifies them exactly like the old per-cycle census did —
// including cache-mode initial I-fetches in thread order.
func (d *DPU) resetThreads() {
	n := d.cfg.NumTasklets
	if cap(d.threadSlab) < n {
		d.threadSlab = make([]thread, n)
		d.threads = make([]*thread, n)
	} else {
		d.threadSlab = d.threadSlab[:n]
		d.threads = d.threads[:n]
	}
	for i := 0; i < n; i++ {
		t := &d.threadSlab[i]
		*t = thread{unit: unit{id: i}, fetchPC: -1}
		// ABI: r22 = stack pointer (per-tasklet stack carved from the top of
		// WRAM), r23 = link register.
		t.regs[22] = uint32(d.cfg.WRAMBytes - i*d.cfg.StackBytes)
		d.threads[i] = t
	}
	d.warps = d.warps[:0]
	if d.cfg.Mode == config.ModeSIMT {
		d.buildWarps()
		n = len(d.warps)
	}
	d.sched.reset(d.cycle)
	d.issuable.reset(n)
	d.aliveN, d.blockedN, d.issuableN, d.issuableLanesN = n, 0, 0, 0
	for i := 0; i < n; i++ {
		d.sched.push(d.cycle, int32(i))
	}
}

// unitAt returns the scheduling record of unit i: thread i's, or under SIMT
// (warps is non-empty exactly then) warp i's.
func (d *DPU) unitAt(i int) *unit {
	if len(d.warps) > 0 {
		return &d.warps[i].unit
	}
	return &d.threads[i].unit
}

// ID returns the DPU's system-wide index.
func (d *DPU) ID() int { return d.id }

// Stats exposes the DPU's statistics record.
func (d *DPU) Stats() *stats.DPU { return &d.st }

// Trace returns the issue trace (empty unless Config.TraceIssues).
func (d *DPU) Trace() []IssueEvent { return d.trace }

// Cycles returns the executed cycle count.
func (d *DPU) Cycles() uint64 { return d.cycle }

// WRAM gives host-side access to the scratchpad (transfer accounting is the
// host runtime's job).
func (d *DPU) WRAM() *mem.WRAM { return d.wram }

// MRAM gives host-side access to the DRAM bank contents.
func (d *DPU) MRAM() *mem.MRAM { return d.mram }

// MMU returns the MMU, or nil when translation is disabled.
func (d *DPU) MMU() *mmu.MMU { return d.mmu }

// Program returns the loaded program.
func (d *DPU) Program() *linker.Program { return d.prog }

// nowTick converts the current cycle to ticks.
func (d *DPU) nowTick() Tick { return Tick(d.cycle) * d.tpc }

// cycleOf converts a tick to the first cycle boundary at or after it. Nearly
// every tick asked about lies within a cycle of the clock — a cache hit is
// ready now, the bank's next decision is a burst time away — so "this cycle"
// and "the next one" are answered by comparison and only the rest divide.
func (d *DPU) cycleOf(t Tick) uint64 {
	now := Tick(d.cycle) * d.tpc
	if t-now-1 < d.tpc { // now < t <= now+tpc
		return d.cycle + 1
	}
	if now-t < d.tpc { // now-tpc < t <= now
		return d.cycle
	}
	return uint64((t + d.tpc - 1) / d.tpc)
}

// Relaunch resets the execution state (threads, scheduler) for another
// kernel invocation while preserving memories, statistics and the clock —
// the host uses this for iterative workloads (e.g. BFS levels).
func (d *DPU) Relaunch() {
	d.resetThreads()
	d.rfDebt = 0
	d.rr = 0
}

// ErrWatchdogExpired reports a kernel that exceeded its cycle budget
// (deadlock or runaway kernel). Match with errors.Is.
var ErrWatchdogExpired = errors.New("watchdog expired")

// ctxCheckInterval is how many simulated cycles pass between context-
// cancellation polls: frequent enough that cancelling a hung kernel returns
// promptly, rare enough to keep the poll off the hot path.
const ctxCheckInterval = 1 << 13

// Run executes the kernel to completion (all tasklets stopped), bounded by
// a budget of maxCycles beyond the current clock as a runaway/deadlock
// watchdog. Cancelling ctx aborts the run with ctx.Err(). The loop schedules
// units and is the same for every organisation; the vector engine differs in
// what a unit issues (issueOne) and in counting parallelism in lanes.
func (d *DPU) Run(ctx context.Context, maxCycles uint64) error {
	if d.released {
		panic("core: Run on a released DPU shell (its storage belongs to the arena and may be recycled)")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	deadline := d.cycle + maxCycles
	if d.cfg.TraceIssues && d.trace == nil {
		d.trace = make([]IssueEvent, 0, min(maxCycles*uint64(d.cfg.IssueWidth), traceMaxPrealloc))
	}
	width := d.cfg.IssueWidth
	nextCtxCheck := d.cycle + ctxCheckInterval
	for d.cycle < deadline {
		if d.cycle >= nextCtxCheck {
			if err := ctx.Err(); err != nil {
				return err
			}
			nextCtxCheck = d.cycle + ctxCheckInterval
		}
		now := d.nowTick()
		if d.bank.Pending() > 0 {
			if at, ok := d.bank.NextDecisionAt(); ok && at <= now {
				d.advanceBank(now)
			}
		}
		d.processDue()
		if d.faultErr != nil {
			return d.faultErr
		}

		if d.aliveN == 0 {
			d.finish()
			return d.faultErr
		}
		issuable, memN := d.issuableN, d.blockedN
		revN := d.aliveN - memN - issuable
		tlp := issuable
		if len(d.warps) > 0 {
			tlp = d.issuableLanesN
		}
		d.st.RecordTLP(tlp, 1, d.cfg.TimelineWindow)

		slots := width
		for slots > 0 && d.rfDebt > 0 {
			d.st.Idle[stats.IdleRF]++
			d.rfDebt--
			slots--
		}
		for slots > 0 {
			if !d.issueOne() {
				break
			}
			d.st.Issued++
			slots--
			if d.faultErr != nil {
				return d.faultErr
			}
		}
		if slots > 0 {
			d.st.AttributeIdle(float64(slots), memN, revN)
		}
		d.st.IssueSlots += float64(width)
		d.cycle++

		// Idle fast-forward: when nothing can issue and no RF debt remains,
		// jump to the next event instead of ticking through dead cycles.
		if issuable == 0 && d.rfDebt == 0 {
			d.fastForward(deadline, nextCtxCheck, memN, revN)
		}
	}
	return fmt.Errorf("core: dpu %d exceeded the %d-cycle watchdog (deadlock or runaway kernel?): %w", d.id, maxCycles, ErrWatchdogExpired)
}

// processDue drains the timer queue up to the current cycle, waking blocked
// units and admitting running ones into the issuable set. It replaces the
// per-cycle wakeThreads/census scans: each unit is touched only when its own
// state can change, and a unit whose ready timer fires is not touched at all
// (admitReady).
func (d *DPU) processDue() {
	for {
		at, ok := d.sched.nextAt()
		if !ok || at > d.cycle {
			break
		}
		mask, ready, big := d.sched.drainAt(at)
		if ready != 0 {
			d.admitReady(ready)
		}
		for ; mask != 0; mask &= mask - 1 {
			d.timerDue(d.unitAt(bits.TrailingZeros64(mask)))
		}
		for _, id := range big {
			d.timerDue(d.unitAt(int(id)))
		}
	}
	d.sched.advanceTo(d.cycle + 1)
}

// timerDue reconsiders one unit whose timer fired.
func (d *DPU) timerDue(u *unit) {
	switch u.state {
	case unitStopped:
		// Stale timer of a stopped unit; drop it.
	case unitBlocked:
		if u.wakeAt == neverWake {
			return // superseded; the completion sink re-arms the timer
		}
		if u.wakeAt > d.cycle {
			d.sched.push(u.wakeAt, int32(u.id)) // stall was extended; re-arm
			return
		}
		u.state = unitRunning
		d.blockedN--
		d.admit(u)
	default:
		d.admit(u)
	}
}

// admit classifies a running unit at the current cycle: it services a
// pending I-fetch (cache mode) at exactly the cycle the per-cycle census
// used to, then either marks the unit issuable or re-arms its timer for the
// cycle its current instruction becomes ready. The I-cache and forwarding
// exist in the scalar organisations only (Config.Validate), where unit id
// is thread id.
func (d *DPU) admit(u *unit) {
	if d.icache != nil {
		if t := d.threads[u.id]; t.fetchPC != int(t.pc) {
			var ready Tick
			ready, t.fetchLine = d.icache.AccessFrom(t.fetchLine, d.iramBacking(t.pc), false, d.nowTick())
			t.fetchPC = int(t.pc)
			t.fetchReady = d.cycleOf(ready)
			if t.fetchReady > d.cycle {
				d.blockUntil(u, t.fetchReady)
				return
			}
		}
	}
	if at := d.readyAt(u); at > d.cycle {
		d.sched.pushReady(at, int32(u.id))
		return
	}
	d.issuable.set(u.id)
	d.issuableN++
	if len(d.warps) > 0 {
		d.issuableLanesN += len(d.warps[u.id].active)
	}
}

// admitReady makes the units of a fired ready mask issuable in one step. A
// ready timer is armed for a running unit at the cycle readyAt gave, with its
// I-fetch (if any) done, and that answer cannot move before the timer fires:
// pc, nextIssueAt, regReady and a warp's active lanes change only at the
// unit's own issue, and a unit with a live timer is not issuable. So admit
// would only set the bit, and the order the bits are set in is invisible.
// Ready masks hold ids below wheelIDs, the issuable set's first word.
func (d *DPU) admitReady(ready uint64) {
	d.issuable.words[0] |= ready
	d.issuableN += bits.OnesCount64(ready)
	if len(d.warps) > 0 {
		for ; ready != 0; ready &= ready - 1 {
			d.issuableLanesN += len(d.warps[bits.TrailingZeros64(ready)].active)
		}
	}
}

// readyAt returns the earliest cycle a running unit may issue its current
// instruction: the revolver/forwarding spacing plus, under forwarding, the
// producer latencies of the µop's source registers.
func (d *DPU) readyAt(u *unit) uint64 {
	at := u.nextIssueAt
	if d.cfg.Forwarding {
		t := d.threads[u.id]
		uop := &d.uops[t.pc]
		for i := uint8(0); i < uop.nSrc; i++ {
			if r := t.regReady[uop.src[i]]; r > at {
				at = r
			}
		}
	}
	return at
}

// scheduleAfterIssue re-arms a still-running unit's timer after it issued:
// in cache mode a changed PC is fetched at the next cycle boundary (when the
// census used to see it); otherwise the unit sleeps on a ready timer until
// its ready time.
func (d *DPU) scheduleAfterIssue(u *unit) {
	if d.icache != nil {
		if t := d.threads[u.id]; t.fetchPC != int(t.pc) {
			d.sched.push(d.cycle+1, int32(u.id))
			return
		}
	}
	d.sched.pushReady(d.readyAt(u), int32(u.id))
}

// issueOne picks the next issuable unit round-robin and issues its
// instruction — a tasklet's on the scalar pipeline, a warp's across its
// active lanes on the vector unit; this branch is where the organisations
// part — then folds the resulting state transition back into the scheduler
// counters. It reports whether anything issued.
func (d *DPU) issueOne() bool {
	i := d.issuable.nextFrom(d.rr)
	if i < 0 {
		return false
	}
	d.rr = i + 1
	if d.rr == d.issuable.n {
		d.rr = 0
	}
	d.issuable.clear(i)
	d.issuableN--
	var u *unit
	if len(d.warps) > 0 {
		w := d.warps[i]
		u = &w.unit
		d.issuableLanesN -= len(w.active)
		d.executeVector(w)
	} else {
		t := d.threads[i]
		u = &t.unit
		uop := &d.uops[t.pc]
		rfConflict := !d.cfg.UnifiedRF && uop.rfConflict()
		if rfConflict {
			d.rfDebt++
		}
		if d.cfg.TraceIssues {
			d.traceIssue(t.id, t.pc, uop.op, rfConflict)
		}
		d.execute(t, uop)
	}
	// The pipeline rule every organisation inherits: revolver (or
	// forwarding) spacing to the unit's next issue.
	u.nextIssueAt = d.cycle + d.issueGap
	switch u.state {
	case unitRunning:
		d.scheduleAfterIssue(u)
	case unitStopped:
		d.aliveN--
		// Blocked units are accounted at their block site, which also arms
		// the wake timer once the completion time is known.
	}
	return true
}

// fastForward runs the clock through an idle stretch: nothing is issuable and
// no RF debt is owed, so until a unit's timer fires no unit changes state,
// memN and revN stand, and the only thing that can be due is a bank decision.
// It jumps to the next event — the earliest unit timer, the bank's next
// decision, or the watchdog deadline — bulk-accounting the skipped cycles,
// and when that event is a bank decision it spends the cycle on it exactly
// as Run's loop would and goes on, without the trip through Run. "Exactly"
// includes how the stretch is cut into AttributeIdle calls — one per jump,
// one per bank cycle, never merged or split: Idle[] is a float sum that
// reaches the artifacts. It returns to Run when a unit timer is due, the
// deadline is reached, or the clock has passed pollAt (a context poll is
// owed; the jump that crosses pollAt is not cut short, only followed by the
// return).
func (d *DPU) fastForward(deadline, pollAt uint64, memN, revN int) {
	width := float64(d.cfg.IssueWidth)
	window := d.cfg.TimelineWindow
	for {
		timer, _ := d.sched.nextAt()
		next := timer
		if at, ok := d.bank.NextDecisionAt(); ok {
			if c := d.cycleOf(at); c < next {
				next = c
			}
		}
		if next == neverWake {
			d.faultErr = fmt.Errorf("core: dpu %d deadlocked at cycle %d (every live thread blocked with no pending events)", d.id, d.cycle)
			return
		}
		if next > deadline {
			next = deadline
		}
		if next > d.cycle {
			skip := next - d.cycle
			d.st.IssueSlots += float64(skip) * width
			d.st.AttributeIdle(float64(skip)*width, memN, revN)
			d.st.RecordTLP(0, skip, window)
			d.cycle = next
		}
		if timer <= d.cycle || d.cycle >= deadline || d.cycle >= pollAt {
			return
		}
		// Only the bank is due at this cycle.
		d.advanceBank(d.nowTick())
		d.sched.advanceTo(d.cycle + 1)
		d.st.RecordTLP(0, 1, window)
		d.st.AttributeIdle(width, memN, revN)
		d.st.IssueSlots += width
		d.cycle++
	}
}

// finish closes out the kernel: drains the bank, flushes dirty cache lines
// (so byte accounting is end-to-end), and freezes counters.
func (d *DPU) finish() {
	if d.bank.Pending() > 0 {
		d.advanceBank(^Tick(0))
	}
	if d.dcache != nil {
		d.dcache.FlushDirty(d.nowTick())
		d.runEager() // account the writeback traffic
	}
	if err := d.bank.Drain(); err != nil && d.faultErr == nil {
		d.faultErr = err
	}
	d.st.Cycles = d.cycle
}

// faultPC records a fatal simulation fault against the thread's current
// instruction; the first one stands.
func (d *DPU) faultPC(t *thread, err error) {
	if d.faultErr == nil {
		d.faultErr = &FaultError{DPU: d.id, Tasklet: t.id, PC: t.pc, Instr: d.prog.Instrs[t.pc], Err: err}
	}
}

// --- memory-system glue -----------------------------------------------

// iramBacking maps an instruction index to the DRAM address backing IRAM in
// cache mode (instructions live in the top static window alongside data).
func (d *DPU) iramBacking(pc uint16) uint32 {
	return uint32(d.cfg.MRAMBytes-2<<20) + uint32(pc)*isa.WordBytes
}

// ptBase is the MRAM offset of the page table (8 bytes per PTE), kept below
// the IRAM backing window (top-2MB) and the cache-mode static window
// (top-1MB) so the three reserved regions never collide.
func (d *DPU) ptBase() uint32 { return uint32(d.cfg.MRAMBytes - 3<<20) }

// advanceBank drains the bank's scheduling decisions up to now and dispatches
// each completion to its sink, in scheduling order. Dispatching after the
// drain (instead of during, as a callback would) is behavior-preserving:
// sinks never enqueue bursts or touch bank state, and the link reservations
// they make depend only on the completion order, which is preserved.
func (d *DPU) advanceBank(now Tick) {
	d.compBuf = d.bank.Advance(now, d.compBuf[:0])
	for _, c := range d.compBuf {
		d.dispatch(c.Tag, c.CompleteAt)
	}
}

// enqueueEager enqueues a burst and resolves it synchronously via an
// immediate full drain (used for cache fills and PTE walks, which need a
// completion time at call time).
func (d *DPU) enqueueEager(addr uint32, write bool, now Tick) Tick {
	d.bank.Enqueue(addr, write, now, sinkEager.tag(0))
	d.advanceBank(^Tick(0))
	return d.eagerDone
}

func (d *DPU) runEager() {
	if d.bank.Pending() > 0 {
		d.advanceBank(^Tick(0))
	}
}

// dispatch routes one burst completion by sink kind: eager drains record the
// tick; a transfer's bursts — a DMA's after crossing the MRAM<->WRAM link, a
// vector load/store's as the bank completes them — wake the owning unit when
// the last one is through.
func (d *DPU) dispatch(tag uint64, completeAt Tick) {
	kind := sinkKind(tag >> 32)
	if kind == sinkEager {
		d.eagerDone = completeAt
		return
	}
	if kind == sinkDMA {
		completeAt = d.link.Reserve(completeAt, d.cfg.BurstBytes)
	}
	xi := int32(uint32(tag))
	x := &d.xfers[xi]
	if completeAt > x.lastDone {
		x.lastDone = completeAt
	}
	x.remaining--
	if x.remaining == 0 {
		u := d.unitAt(int(x.owner))
		u.wakeAt = d.cycleOf(x.lastDone) + 1
		if u.state == unitBlocked {
			d.sched.push(u.wakeAt, int32(u.id))
		}
		d.freeXfers = append(d.freeXfers, xi)
	}
}

// fillBackend adapts the DPU's bank+link to the cache.Backend interface.
type fillBackend DPU

// Fill fetches a line through the bank and the MRAM<->core link.
func (b *fillBackend) Fill(lineAddr uint32, lineBytes int, now Tick) Tick {
	d := (*DPU)(b)
	var last Tick
	for off := 0; off < lineBytes; off += d.cfg.BurstBytes {
		at := d.enqueueEager(lineAddr+uint32(off), false, now)
		last = d.link.Reserve(at, d.cfg.BurstBytes)
	}
	return last
}

// Writeback posts a dirty line; the cache does not wait for it.
func (b *fillBackend) Writeback(lineAddr uint32, lineBytes int, now Tick) Tick {
	d := (*DPU)(b)
	var last Tick
	for off := 0; off < lineBytes; off += d.cfg.BurstBytes {
		last = d.enqueueEager(lineAddr+uint32(off), true, now)
	}
	return last
}

// ptWalker adapts the bank to the MMU's page-table-walk timing interface.
type ptWalker DPU

// WalkPTE reads one PTE from the page table in MRAM.
func (w *ptWalker) WalkPTE(vpage uint32, now Tick) Tick {
	d := (*DPU)(w)
	return d.enqueueEager(d.ptBase()+vpage*8, false, now)
}
