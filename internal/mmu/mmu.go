package mmu

import (
	"fmt"

	"upim/internal/config"
	"upim/internal/stats"
)

// Tick aliases the simulator time unit.
type Tick = config.Tick

// Walker models the timing of a page-table-entry read; the DPU wires this to
// an MRAM access of one PTE (the table lives in the DPU's own DRAM bank).
type Walker interface {
	WalkPTE(vpage uint32, now Tick) Tick
}

// MMU is one DPU's translation unit.
type MMU struct {
	cfg     config.MMUConfig
	walker  Walker
	st      *stats.MMU
	ticksNs float64 // ticks per nanosecond

	table map[uint32]uint32 // vpage -> ppage (functional page table)
	tlb   []tlbEntry
	clock uint64
}

type tlbEntry struct {
	vpage, ppage uint32
	valid        bool
	lastUse      uint64
}

// New builds an MMU.
func New(cfg config.MMUConfig, walker Walker, st *stats.MMU) *MMU {
	return &MMU{
		cfg:     cfg,
		walker:  walker,
		st:      st,
		ticksNs: float64(config.TickFrequencyMHz) / 1e3,
		table:   map[uint32]uint32{},
		tlb:     make([]tlbEntry, cfg.TLBSize),
	}
}

// PageBytes returns the configured page size.
func (m *MMU) PageBytes() int { return m.cfg.PageBytes }

// Map installs a page-table entry (host path: prefaulting while loading data,
// or the fault handler resolving a demand fault).
func (m *MMU) Map(vpage, ppage uint32) { m.table[vpage] = ppage }

// MapRange identity-or-offset maps every page covering [off, off+n) bytes.
func (m *MMU) MapRange(off uint32, n int) {
	if n <= 0 {
		return
	}
	pb := uint32(m.cfg.PageBytes)
	for p := off / pb; p <= (off+uint32(n)-1)/pb; p++ {
		m.Map(p, p)
	}
}

// Mapped reports whether vpage has a page-table entry.
func (m *MMU) Mapped(vpage uint32) bool {
	_, ok := m.table[vpage]
	return ok
}

// Translate translates a virtual MRAM offset. It returns the physical
// offset and the tick at which translation is resolved (now on TLB hits; a
// page-table walk and possibly a host fault round-trip later otherwise).
func (m *MMU) Translate(vaddr uint32, now Tick) (paddr uint32, readyAt Tick, err error) {
	pb := uint32(m.cfg.PageBytes)
	vpage, off := vaddr/pb, vaddr%pb
	m.clock++
	// TLB lookup (single DPU cycle, hidden in the pipeline).
	for i := range m.tlb {
		if m.tlb[i].valid && m.tlb[i].vpage == vpage {
			m.tlb[i].lastUse = m.clock
			m.st.TLBHits++
			return m.tlb[i].ppage*pb + off, now, nil
		}
	}
	m.st.TLBMisses++
	// Page-table walk: one PTE read from MRAM.
	readyAt = m.walker.WalkPTE(vpage, now)
	m.st.TableWalks++
	ppage, ok := m.table[vpage]
	if !ok {
		// Page fault: write fault buffer, wait for the host to notice and
		// install a mapping, then the resumed walk finds the new PTE.
		m.st.PageFaults++
		if !m.cfg.Prefault {
			ppage = vpage // host allocates on demand (identity policy)
			m.table[vpage] = ppage
			readyAt += Tick(float64(float64(m.cfg.FaultHandlerNs) * m.ticksNs))
		} else {
			return 0, readyAt, fmt.Errorf("mmu: access to unmapped page %d at 0x%08x with prefault policy", vpage, vaddr)
		}
	}
	m.fillTLB(vpage, ppage)
	return ppage*pb + off, readyAt, nil
}

func (m *MMU) fillTLB(vpage, ppage uint32) {
	victim, oldest := 0, ^uint64(0)
	for i := range m.tlb {
		if !m.tlb[i].valid {
			victim = i
			break
		}
		if m.tlb[i].lastUse < oldest {
			oldest = m.tlb[i].lastUse
			victim = i
		}
	}
	m.tlb[victim] = tlbEntry{vpage: vpage, ppage: ppage, valid: true, lastUse: m.clock}
}
