package core

import (
	"fmt"
	"math"

	"upim/internal/config"
	"upim/internal/isa"
	"upim/internal/mem"
)

// read returns a register operand's value; special registers materialize
// their architectural meaning. GPR reads are counted as register-file events
// (immediates and special registers never touch the RF array), which is what
// the energy model's RF component integrates.
func (d *DPU) read(t *thread, r isa.RegID) uint32 {
	switch {
	case r.IsGPR():
		d.st.RFReads++
		return t.regs[r]
	case r == isa.Zero:
		return 0
	case r == isa.ID:
		return uint32(t.id)
	case r == isa.NTasklets:
		return uint32(d.cfg.NumTasklets)
	case r == isa.DPUID:
		return uint32(d.id)
	default:
		return 0
	}
}

func (d *DPU) write(t *thread, r isa.RegID, v uint32) {
	if r.IsGPR() {
		t.regs[r] = v
		d.st.RFWrites++
	}
}

// divSigned follows the hardware convention: x/0 = -1 and INT_MIN/-1
// saturates (no trap).
func divSigned(a, b int32) int32 {
	switch {
	case b == 0:
		return -1
	case a == math.MinInt32 && b == -1:
		return math.MinInt32
	default:
		return a / b
	}
}

func remSigned(a, b int32) int32 {
	switch {
	case b == 0:
		return a
	case a == math.MinInt32 && b == -1:
		return 0
	default:
		return a % b
	}
}

// jccTaken evaluates a compare-and-branch.
func jccTaken(op isa.Opcode, a, b uint32) bool {
	switch op {
	case isa.OpJEQ:
		return a == b
	case isa.OpJNE:
		return a != b
	case isa.OpJLT:
		return int32(a) < int32(b)
	case isa.OpJLE:
		return int32(a) <= int32(b)
	case isa.OpJGT:
		return int32(a) > int32(b)
	case isa.OpJGE:
		return int32(a) >= int32(b)
	case isa.OpJLTU:
		return a < b
	case isa.OpJGEU:
		return a >= b
	default:
		panic(fmt.Sprintf("core: jccTaken on %s", op))
	}
}

func signExtendVal(v uint32, size int) uint32 {
	switch size {
	case 1:
		return uint32(int32(int8(v)))
	case 2:
		return uint32(int32(int16(v)))
	default:
		return v
	}
}

// traceIssue appends one issue to the trace (Config.TraceIssues).
func (d *DPU) traceIssue(tasklet int, pc uint16, op isa.Opcode, rfConflict bool) {
	d.trace = append(d.trace, IssueEvent{Cycle: d.cycle, Tasklet: tasklet, PC: pc, Op: op, RFConflict: rfConflict})
}

// execute runs µop u, the instruction at t's PC, for one thread — a tasklet
// issuing on the scalar pipeline or one active lane of a vector issue —
// performing its functional effects and applying its timing consequences.
// All static instruction properties come from the decode-once µop table.
//
// Each opcode is a case of one switch. The ALU opcodes and MOV, most of
// what issues, compute a result and share the commit after the switch: the
// destination write, then the optional condition branch, whose Eval is
// skipped for the µops without one. Every other case moves the PC itself
// and returns.
func (d *DPU) execute(t *thread, u *uop) {
	d.st.Instructions++
	d.st.Mix[u.class]++
	t.instret++

	var result uint32
	switch u.op {
	case isa.OpADD:
		result = d.read(t, u.ra) + d.operandB(t, u)
	case isa.OpSUB:
		result = d.read(t, u.ra) - d.operandB(t, u)
	case isa.OpAND:
		result = d.read(t, u.ra) & d.operandB(t, u)
	case isa.OpOR:
		result = d.read(t, u.ra) | d.operandB(t, u)
	case isa.OpXOR:
		result = d.read(t, u.ra) ^ d.operandB(t, u)
	case isa.OpLSL:
		result = d.read(t, u.ra) << (d.operandB(t, u) & 31)
	case isa.OpLSR:
		result = d.read(t, u.ra) >> (d.operandB(t, u) & 31)
	case isa.OpASR:
		result = uint32(int32(d.read(t, u.ra)) >> (d.operandB(t, u) & 31))
	case isa.OpMUL:
		result = uint32(int32(d.read(t, u.ra)) * int32(d.operandB(t, u)))
	case isa.OpMULH:
		result = uint32(uint64(int64(int32(d.read(t, u.ra)))*int64(int32(d.operandB(t, u)))) >> 32)
	case isa.OpDIV:
		result = uint32(divSigned(int32(d.read(t, u.ra)), int32(d.operandB(t, u))))
	case isa.OpREM:
		result = uint32(remSigned(int32(d.read(t, u.ra)), int32(d.operandB(t, u))))
	case isa.OpMOV:
		result = d.read(t, u.ra)

	case isa.OpMOVI:
		d.writeDst(t, u, u.rd, uint32(u.imm))
		t.pc++
		return

	case isa.OpLW, isa.OpLH, isa.OpLHU, isa.OpLB, isa.OpLBU, isa.OpSW, isa.OpSH, isa.OpSB:
		d.execMem(t, u)
		t.pc++
		return

	case isa.OpLDMA, isa.OpSDMA:
		d.execDMA(t, u)
		t.pc++
		return

	case isa.OpJEQ, isa.OpJNE, isa.OpJLT, isa.OpJLE, isa.OpJGT, isa.OpJGE, isa.OpJLTU, isa.OpJGEU:
		b := d.operandB(t, u)
		if jccTaken(u.op, d.read(t, u.ra), b) {
			t.pc = u.target
			return
		}
		t.pc++
		return

	case isa.OpJUMP:
		t.pc = u.target
		return

	case isa.OpCALL:
		d.writeDst(t, u, isa.RegID(23), uint32(t.pc)+1)
		t.pc = u.target
		return

	case isa.OpJREG:
		dest := d.read(t, u.ra)
		if dest >= uint32(len(d.uops)) {
			d.faultPC(t, fmt.Errorf("jreg to %d beyond program end %d", dest, len(d.uops)))
			return
		}
		t.pc = uint16(dest)
		return

	case isa.OpACQUIRE:
		ok, err := d.atomic.TryAcquire(int(u.imm), t.id)
		if err != nil {
			d.faultPC(t, err)
			return
		}
		if ok {
			d.st.AcquireOK++
			t.pc++
		} else {
			d.st.AcquireFail++
			t.pc = u.target
		}
		return

	case isa.OpRELEASE:
		if err := d.atomic.Release(int(u.imm), t.id); err != nil {
			d.faultPC(t, err)
			return
		}
		t.pc++
		return

	case isa.OpSTOP:
		t.state = unitStopped
		return

	case isa.OpPERF:
		d.writeDst(t, u, u.rd, d.perfCounter(t, u.imm))
		t.pc++
		return

	case isa.OpFAULT:
		d.faultPC(t, fmt.Errorf("software fault %d (r%d=%d)", u.imm, u.rd, d.read(t, u.rd)))
		return

	case isa.OpNOP:
		t.pc++
		return

	default:
		panic(fmt.Sprintf("core: execute on %s", u.op))
	}
	d.writeDst(t, u, u.rd, result)
	if u.cond != isa.CondNone && u.cond.Eval(int32(result)) {
		t.pc = u.target
		return
	}
	t.pc++
}

// operandB is an ALU or compare µop's second operand: its immediate, or rb.
func (d *DPU) operandB(t *thread, u *uop) uint32 {
	if u.useImm() {
		return uint32(u.imm)
	}
	return d.read(t, u.rb)
}

// writeDst commits a result register write, updating the forwarding-ready
// tick for GPR destinations.
func (d *DPU) writeDst(t *thread, u *uop, r isa.RegID, v uint32) {
	d.write(t, r, v)
	if d.cfg.Forwarding && r.IsGPR() {
		t.regReady[r] = d.cycle + d.fwdLat[u.class]
	}
}

// perfCounter is what PERF reads under a selector: 0 the DPU's cycle, 1 the
// tasklet's retired instructions, the PERF itself included; the rest of the
// 8-bit selector space reads zero.
func (d *DPU) perfCounter(t *thread, sel int32) uint32 {
	switch sel {
	case 0:
		return uint32(d.cycle)
	case 1:
		return uint32(t.instret)
	}
	return 0
}

// execMem handles loads/stores: the organisation's address-side timing, the
// functional access (the same everywhere, done at once), then its data-side
// timing. WRAM-space accesses are single-cycle. MRAM-space accesses are
// translated (MMU) and go through the D-cache in cache mode — the tasklet
// stalls once, until the later of the walk and the miss — and are the lane's
// request to the coalescer under SIMT; the scratchpad-centric model has none
// (DMA only).
func (d *DPU) execMem(t *thread, u *uop) {
	addr := d.read(t, u.ra) + uint32(u.imm)
	space := mem.Classify(addr, d.cfg.WRAMBytes)
	var walked uint64 // the cycle the MMU walk's translation is ready
	if space == mem.SpaceMRAM {
		if d.cfg.Mode == config.ModeScratchpad {
			d.faultPC(t, fmt.Errorf("load/store to MRAM space 0x%08x under the scratchpad-centric model (use DMA)", addr))
			return
		}
		addr -= mem.MRAMBase
		if d.mmu != nil {
			paddr, ready, err := d.mmu.Translate(addr, d.nowTick())
			if err != nil {
				d.faultPC(t, err)
				return
			}
			addr = paddr
			walked = d.cycleOf(ready)
		}
	}

	size, isStore := int(u.memSiz), u.isStore()
	var v uint32
	var err error
	switch space {
	case mem.SpaceWRAM:
		if isStore {
			err = d.wram.Store(addr, size, d.read(t, u.rd))
			d.st.WRAMWrites++
		} else {
			v, err = d.wram.Load(addr, size)
			d.st.WRAMReads++
		}
	case mem.SpaceMRAM:
		if isStore {
			err = d.mram.Store(addr, size, uint64(d.read(t, u.rd)))
		} else {
			var v64 uint64
			v64, err = d.mram.Load(addr, size)
			v = uint32(v64)
		}
	default:
		err = fmt.Errorf("load/store to %v space at 0x%08x", space, addr)
	}
	if err != nil {
		d.faultPC(t, err)
		return
	}
	if !isStore {
		if u.signExt() {
			v = signExtendVal(v, size)
		}
		d.writeDst(t, u, u.rd, v)
	}

	if space != mem.SpaceMRAM {
		return
	}
	if d.cfg.Mode == config.ModeSIMT {
		d.laneRequest(addr)
		return
	}
	ready := d.dcache.Access(addr, isStore, d.nowTick())
	if c := max(walked, d.cycleOf(ready)); c > d.cycle {
		d.blockUntil(&t.unit, c)
	}
}

// blockUntil parks a running unit until the given cycle and arms its wake
// timer, the one timer the unit has until it wakes.
func (d *DPU) blockUntil(u *unit, cycle uint64) {
	u.state = unitBlocked
	u.wakeAt = cycle
	d.blockedN++
	d.sched.push(cycle, int32(u.id))
}

// blockOnBank parks a running unit on the transfer it just handed to the
// bank: the wake cycle becomes known, and dispatch arms the timer, once the
// bank schedules the transfer's last burst.
func (d *DPU) blockOnBank(u *unit) {
	u.state = unitBlocked
	u.wakeAt = neverWake
	d.blockedN++
}

// execDMA issues an MRAM<->WRAM DMA: functional copy now, timing through the
// bank and link, with per-page MMU translation when enabled.
func (d *DPU) execDMA(t *thread, u *uop) {
	wramAddr := d.read(t, u.rd)
	mramAddr := d.read(t, u.ra)
	length := u.imm
	if !u.useImm() {
		length = int32(d.read(t, u.rb))
	}
	if d.cfg.Mode != config.ModeScratchpad {
		d.faultPC(t, fmt.Errorf("DMA instructions are only defined under the scratchpad-centric model (mode %v)", d.cfg.Mode))
		return
	}
	if !isa.DMALengthOK(length) {
		d.faultPC(t, fmt.Errorf("DMA length %d must be a positive multiple of 8 <= %d", length, isa.MaxDMABytes))
		return
	}
	if wramAddr%8 != 0 || mramAddr%8 != 0 {
		d.faultPC(t, fmt.Errorf("DMA addresses must be 8-byte aligned (wram 0x%x, mram 0x%x)", wramAddr, mramAddr))
		return
	}
	if mem.Classify(mramAddr, d.cfg.WRAMBytes) != mem.SpaceMRAM {
		d.faultPC(t, fmt.Errorf("DMA MRAM address 0x%08x outside MRAM space", mramAddr))
		return
	}
	off := mramAddr - mem.MRAMBase
	n := int(length)
	isLoad := u.op == isa.OpLDMA

	// Functional copy at issue (transfer-atomic semantics; see package doc).
	if cap(d.dmaBuf) < n {
		d.dmaBuf = make([]byte, isa.MaxDMABytes)
	}
	buf := d.dmaBuf[:n]
	var err error
	if isLoad {
		if err = d.mram.ReadBytes(off, buf); err == nil {
			err = d.wram.WriteBytes(wramAddr, buf)
		}
	} else {
		if err = d.wram.ReadBytes(wramAddr, buf); err == nil {
			err = d.mram.WriteBytes(off, buf)
		}
	}
	if err != nil {
		d.faultPC(t, err)
		return
	}
	d.st.DMAs++
	d.st.DMABytes += uint64(n)

	// Timing: translate per touched page (MMU), then stream bursts through
	// the bank, one run per physically contiguous segment; data crosses the
	// MRAM<->WRAM link in burst grains. The transfer record lives in the
	// DPU's xfer slab; every burst's completion routes to it by tag (see
	// dispatch).
	now := d.nowTick()
	bb := d.cfg.BurstBytes
	nBursts := (n + bb - 1) / bb
	xi := d.allocXfer(int32(t.id), int32(nBursts))
	tag := sinkDMA.tag(xi)

	pageBytes := uint32(0)
	if d.mmu != nil {
		pageBytes = uint32(d.mmu.PageBytes())
	}
	transReady := now
	segStart := 0
	for segStart < n {
		segEnd := n
		physBase := off + uint32(segStart)
		if d.mmu != nil {
			vaddr := off + uint32(segStart)
			nextPage := (vaddr/pageBytes + 1) * pageBytes
			if int(nextPage-off) < segEnd {
				segEnd = int(nextPage - off)
			}
			paddr, ready, terr := d.mmu.Translate(vaddr, transReady)
			if terr != nil {
				d.faultPC(t, terr)
				return
			}
			physBase = paddr
			transReady = ready
		}
		d.bank.EnqueueRun(physBase, (segEnd-segStart+bb-1)/bb, !isLoad, max(now, transReady), tag)
		segStart = segEnd
	}
	// The tasklet blocks until the final burst clears the link.
	d.blockOnBank(&t.unit)
}
