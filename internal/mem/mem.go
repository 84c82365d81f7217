package mem

import (
	"encoding/binary"
	"fmt"
)

// Physical address-map bases (paper Fig 3(c)).
const (
	WRAMBase   uint32 = 0x0000_0000
	MRAMBase   uint32 = 0x0800_0000
	MRAMLimit  uint32 = 0x0C00_0000
	IRAMBase   uint32 = 0x8000_0000
	AtomicBase uint32 = 0xF000_0000
)

// Space identifies which memory an address falls in.
type Space int

const (
	SpaceWRAM Space = iota
	SpaceMRAM
	SpaceIRAM
	SpaceAtomic
	SpaceInvalid
)

func (s Space) String() string {
	switch s {
	case SpaceWRAM:
		return "WRAM"
	case SpaceMRAM:
		return "MRAM"
	case SpaceIRAM:
		return "IRAM"
	case SpaceAtomic:
		return "atomic"
	default:
		return "invalid"
	}
}

// Classify maps a physical address to its memory space given the WRAM size.
func Classify(addr uint32, wramBytes int) Space {
	switch {
	case addr < WRAMBase+uint32(wramBytes):
		return SpaceWRAM
	case addr >= MRAMBase && addr < MRAMLimit:
		return SpaceMRAM
	case addr >= IRAMBase && addr < AtomicBase:
		return SpaceIRAM
	case addr >= AtomicBase:
		return SpaceAtomic
	default:
		return SpaceInvalid
	}
}

// AccessError reports an invalid memory access; the DPU converts it into a
// simulation fault attributed to the offending tasklet.
type AccessError struct {
	Space  Space
	Addr   uint32
	Size   int
	Reason string
}

func (e *AccessError) Error() string {
	return fmt.Sprintf("mem: %s access at 0x%08x (size %d): %s", e.Space, e.Addr, e.Size, e.Reason)
}

func accessErr(space Space, addr uint32, size int, reason string) error {
	return &AccessError{Space: space, Addr: addr, Size: size, Reason: reason}
}

// WRAM is the per-DPU working scratchpad: flat, byte-addressable, 1-cycle.
type WRAM struct {
	data []byte
}

// NewWRAM allocates a scratchpad of the given size.
func NewWRAM(size int) *WRAM { return &WRAM{data: make([]byte, size)} }

// Reset zeroes the scratchpad and resizes it to size, reusing the backing
// array when it is large enough (arena reuse): a reset WRAM is
// indistinguishable from a fresh one.
func (w *WRAM) Reset(size int) {
	if cap(w.data) < size {
		w.data = make([]byte, size)
		return
	}
	w.data = w.data[:size]
	clear(w.data)
}

func (w *WRAM) check(addr uint32, size int) error {
	if int(addr)+size > len(w.data) {
		return accessErr(SpaceWRAM, addr, size, "out of range")
	}
	if size > 1 && addr%uint32(size) != 0 {
		return accessErr(SpaceWRAM, addr, size, "misaligned")
	}
	return nil
}

// Load reads size (1, 2 or 4) bytes little-endian.
func (w *WRAM) Load(addr uint32, size int) (uint32, error) {
	if err := w.check(addr, size); err != nil {
		return 0, err
	}
	switch size {
	case 1:
		return uint32(w.data[addr]), nil
	case 2:
		return uint32(binary.LittleEndian.Uint16(w.data[addr:])), nil
	case 4:
		return binary.LittleEndian.Uint32(w.data[addr:]), nil
	default:
		return 0, accessErr(SpaceWRAM, addr, size, "unsupported size")
	}
}

// Store writes size (1, 2 or 4) bytes little-endian.
func (w *WRAM) Store(addr uint32, size int, val uint32) error {
	if err := w.check(addr, size); err != nil {
		return err
	}
	switch size {
	case 1:
		w.data[addr] = byte(val)
	case 2:
		binary.LittleEndian.PutUint16(w.data[addr:], uint16(val))
	case 4:
		binary.LittleEndian.PutUint32(w.data[addr:], val)
	default:
		return accessErr(SpaceWRAM, addr, size, "unsupported size")
	}
	return nil
}

// ReadBytes copies a range out of WRAM (host/DMA path).
func (w *WRAM) ReadBytes(addr uint32, dst []byte) error {
	if int(addr)+len(dst) > len(w.data) {
		return accessErr(SpaceWRAM, addr, len(dst), "out of range")
	}
	copy(dst, w.data[addr:])
	return nil
}

// WriteBytes copies a range into WRAM (host/DMA path).
func (w *WRAM) WriteBytes(addr uint32, src []byte) error {
	if int(addr)+len(src) > len(w.data) {
		return accessErr(SpaceWRAM, addr, len(src), "out of range")
	}
	copy(w.data[addr:], src)
	return nil
}

// mramPageBytes is the sparse-allocation granule of MRAM backing storage
// (a simulator implementation detail, unrelated to MMU pages).
const mramPageBytes = 64 << 10

// MRAM is the DPU's 64MB DRAM bank, backed sparsely: pages materialize on
// first write so a 2,560-DPU system does not allocate 160GB.
type MRAM struct {
	size int
	// pages holds exactly the pages written since the last Reset (nil
	// reads all-zeros); spare holds cleared ones for the next writes.
	pages, spare [][]byte
}

// NewMRAM creates a bank of the given size (offset-addressed from 0).
func NewMRAM(size int) *MRAM {
	n := (size + mramPageBytes - 1) / mramPageBytes
	return &MRAM{size: size, pages: make([][]byte, n)}
}

// Reset zeroes the bank and resizes it to size, clearing only the pages
// written since the last Reset (past a shrunken size too) and keeping them
// for reuse: a recycled bank reads like a fresh one, and a long-lived DPU
// shell pays for what its last run wrote, not for every dataset it held.
func (m *MRAM) Reset(size int) {
	pages := m.pages[:cap(m.pages)]
	for i, p := range pages {
		if p != nil {
			clear(p)
			m.spare, pages[i] = append(m.spare, p), nil
		}
	}
	n := (size + mramPageBytes - 1) / mramPageBytes
	if n > len(pages) {
		pages = make([][]byte, n)
	}
	m.pages, m.size = pages[:n], size
}

// page returns page idx for writing, materializing it on first touch.
func (m *MRAM) page(idx int) []byte {
	if m.pages[idx] == nil {
		if k := len(m.spare); k > 0 {
			m.pages[idx], m.spare = m.spare[k-1], m.spare[:k-1]
		} else {
			m.pages[idx] = make([]byte, mramPageBytes)
		}
	}
	return m.pages[idx]
}

func (m *MRAM) checkRange(off uint32, n int) error {
	if int64(off)+int64(n) > int64(m.size) {
		return accessErr(SpaceMRAM, MRAMBase+off, n, "out of range")
	}
	return nil
}

// ReadBytes copies n bytes starting at bank offset off into dst.
func (m *MRAM) ReadBytes(off uint32, dst []byte) error {
	if err := m.checkRange(off, len(dst)); err != nil {
		return err
	}
	for len(dst) > 0 {
		pi, po := int(off)/mramPageBytes, int(off)%mramPageBytes
		n := min(len(dst), mramPageBytes-po)
		if p := m.pages[pi]; p != nil {
			copy(dst[:n], p[po:])
		} else {
			clear(dst[:n])
		}
		dst = dst[n:]
		off += uint32(n)
	}
	return nil
}

// WriteBytes copies src into the bank starting at offset off.
func (m *MRAM) WriteBytes(off uint32, src []byte) error {
	if err := m.checkRange(off, len(src)); err != nil {
		return err
	}
	for len(src) > 0 {
		pi, po := int(off)/mramPageBytes, int(off)%mramPageBytes
		n := min(len(src), mramPageBytes-po)
		copy(m.page(pi)[po:], src[:n])
		src = src[n:]
		off += uint32(n)
	}
	return nil
}

// Load reads a little-endian value of size 1, 2, 4 or 8 at bank offset off
// (cache-centric mode reads MRAM directly through the D-cache).
func (m *MRAM) Load(off uint32, size int) (uint64, error) {
	if size > 1 && off%uint32(size) != 0 {
		return 0, accessErr(SpaceMRAM, MRAMBase+off, size, "misaligned")
	}
	var buf [8]byte
	if err := m.ReadBytes(off, buf[:size]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint64(buf[:]), nil
}

// Store writes a little-endian value of size 1, 2, 4 or 8 at bank offset off.
func (m *MRAM) Store(off uint32, size int, val uint64) error {
	if size > 1 && off%uint32(size) != 0 {
		return accessErr(SpaceMRAM, MRAMBase+off, size, "misaligned")
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], val)
	return m.WriteBytes(off, buf[:size])
}

// AllocatedBytes reports how much backing storage has materialized (test and
// footprint introspection).
func (m *MRAM) AllocatedBytes() int {
	n := len(m.spare) * mramPageBytes
	for _, p := range m.pages {
		if p != nil {
			n += len(p)
		}
	}
	return n
}

// Atomic is the 256-bit lock region. Each bit is a mutex manipulated only by
// ACQUIRE/RELEASE instructions.
type Atomic struct {
	held  []bool
	owner []int // owning tasklet, -1 when free (for invariant checking)
}

// NewAtomic creates a lock region with n locks.
func NewAtomic(n int) *Atomic {
	a := &Atomic{held: make([]bool, n), owner: make([]int, n)}
	for i := range a.owner {
		a.owner[i] = -1
	}
	return a
}

// Reset releases every lock and resizes the region to n locks, reusing the
// backing arrays when possible (arena reuse).
func (a *Atomic) Reset(n int) {
	if cap(a.held) < n {
		a.held = make([]bool, n)
		a.owner = make([]int, n)
	} else {
		a.held = a.held[:n]
		a.owner = a.owner[:n]
	}
	for i := range a.held {
		a.held[i] = false
		a.owner[i] = -1
	}
}

// TryAcquire attempts to take lock id for tasklet tid; it reports whether the
// lock was obtained. Re-acquiring a lock the tasklet already holds is an
// error in the UPMEM programming model and returns false.
func (a *Atomic) TryAcquire(id, tid int) (bool, error) {
	if id < 0 || id >= len(a.held) {
		return false, accessErr(SpaceAtomic, AtomicBase+uint32(id), 1, "lock index out of range")
	}
	if a.held[id] {
		return false, nil
	}
	a.held[id] = true
	a.owner[id] = tid
	return true, nil
}

// Release frees lock id held by tasklet tid. Releasing a lock the tasklet
// does not hold is a programming error surfaced as a fault.
func (a *Atomic) Release(id, tid int) error {
	if id < 0 || id >= len(a.held) {
		return accessErr(SpaceAtomic, AtomicBase+uint32(id), 1, "lock index out of range")
	}
	if !a.held[id] || a.owner[id] != tid {
		return accessErr(SpaceAtomic, AtomicBase+uint32(id), 1,
			fmt.Sprintf("release by tasklet %d but owner is %d", tid, a.owner[id]))
	}
	a.held[id] = false
	a.owner[id] = -1
	return nil
}

// Holder returns the tasklet holding lock id, or -1.
func (a *Atomic) Holder(id int) int {
	if id < 0 || id >= len(a.owner) {
		return -1
	}
	return a.owner[id]
}
