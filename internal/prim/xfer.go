package prim

import (
	"context"
	"encoding/binary"
	"sync"

	"upim/internal/host"
)

// The PrIM host program, written once. Every benchmark's host side is the
// same five steps — partition the data, lay each DPU's MRAM bank out, stage
// inputs and the argument block, launch, read results back and verify — and
// every run* function spells them through an xfer: offsets come from mram
// (computed once per DPU, remembered as regions), transfers go through
// put/args/launch/get, and the first transfer or launch error sticks, so a
// host reads as straight-line code without an error check per call.

// region is a span of int32 words in a DPU's MRAM bank.
type region struct {
	off   uint32 // bank byte offset, 8-byte aligned unless made by sub
	words int
}

// addr is the absolute address kernels take in their argument block.
func (r region) addr() uint32 { return host.MRAMBaseAddr(r.off) }

// sub returns the n-word span starting lo words into r.
func (r region) sub(lo, n int) region { return region{r.off + uint32(4*lo), n} }

// mram lays one DPU's bank out: consecutive regions from offset 0, each
// starting on the 8-byte DMA alignment.
type mram struct{ next uint32 }

func (m *mram) words(n int) region {
	r := region{m.next, n}
	m.next = (m.next + uint32(4*n) + 7) &^ 7
	return r
}

// xfer is one run's host-side state: the system, the sticky error, and the
// staging buffers. Buffers are pooled, so a steady-state sweep point
// allocates nothing for workload I/O; their contents are dead once the run
// returns and only capacity is recycled.
type xfer struct {
	sys *host.System
	err error // first transfer or launch failure; later calls are skipped

	buf   []byte    // serialization and readback staging
	vals  []int32   // get's decode target
	slabs [][]int32 // ints' slices, handed out in call order
	used  int
}

var scratchPool = sync.Pool{New: func() any { return new(xfer) }}

// run executes host program prog on sys. A transfer or launch error wins
// over whatever prog returned: past the first failure get yields zeros, so
// prog's own verdict is noise.
func (x *xfer) run(ctx context.Context, sys *host.System, prog func(context.Context, *xfer, Params) error, p Params) error {
	x.sys, x.err, x.used = sys, nil, 0
	err := prog(ctx, x, p)
	if x.err != nil {
		err = x.err
	}
	x.sys = nil
	return err
}

// ints returns a zeroed n-element slice that lives until the run returns
// (golden models, gathered outputs). Slices are recycled across runs in call
// order, so a sweep's repeated points find their capacity waiting.
func (x *xfer) ints(n int) []int32 {
	if x.used == len(x.slabs) {
		x.slabs = append(x.slabs, nil)
	}
	s := x.slabs[x.used]
	if cap(s) < n {
		s = make([]int32, n)
	}
	s = s[:n]
	clear(s)
	x.slabs[x.used] = s
	x.used++
	return s
}

// stage returns the n-byte staging buffer.
func (x *xfer) stage(n int) []byte {
	if cap(x.buf) < n {
		x.buf = make([]byte, n)
	}
	return x.buf[:n]
}

// put copies v, little-endian, to the start of DPU d's region r. v may be
// shorter than r (layouts sized by the largest slice); an empty v transfers
// nothing.
func (x *xfer) put(d int, r region, v []int32) {
	if x.err != nil || len(v) == 0 {
		return
	}
	buf := x.stage(4 * len(v))
	for i, w := range v {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(w))
	}
	x.err = x.sys.CopyToMRAM(d, r.off, buf)
}

// args writes DPU d's launch argument block.
func (x *xfer) args(d int, a ...uint32) {
	if x.err == nil {
		x.err = x.sys.WriteArgs(d, a...)
	}
}

// phase closes the current transfer-accounting bucket and opens p.
func (x *xfer) phase(p host.Phase) {
	if x.err == nil {
		x.sys.SetPhase(p)
	}
}

// launch runs the kernel on every DPU, then accounts what follows to next.
func (x *xfer) launch(ctx context.Context, next host.Phase) {
	if x.err == nil {
		x.err = x.sys.Launch(ctx)
	}
	x.phase(next)
}

// read fills dst, r.words long, from DPU d's region r — with zeros once a
// transfer has failed, so a host can index what it reads without checking.
func (x *xfer) read(dst []int32, d int, r region) {
	buf := x.stage(4 * len(dst))
	if x.err == nil && len(dst) > 0 {
		x.err = x.sys.ReadMRAMInto(d, r.off, buf)
	}
	if x.err != nil {
		clear(dst)
		return
	}
	for i := range dst {
		dst[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
}

// get reads DPU d's region r into a buffer that is valid until the next get.
func (x *xfer) get(d int, r region) []int32 {
	if cap(x.vals) < r.words {
		x.vals = make([]int32, r.words)
	}
	x.read(x.vals[:r.words], d, r)
	return x.vals[:r.words]
}

// gather reads outs[d] from every DPU d and concatenates them in DPU order.
func (x *xfer) gather(outs []region) []int32 {
	n := 0
	for _, r := range outs {
		n += r.words
	}
	all, at := x.ints(n), 0
	for d, r := range outs {
		x.read(all[at:at+r.words], d, r)
		at += r.words
	}
	return all
}
