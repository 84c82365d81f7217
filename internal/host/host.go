// Package host models the CPU side of an UPMEM-PIM system: DPU allocation,
// binary/data distribution over the fixed-bandwidth asymmetric CPU<->DPU
// channel (Table I: 0.296 GB/s down, 0.063 GB/s up, per DPU), kernel
// launches, and the phase-bucketed time accounting behind the paper's
// multi-DPU strong-scaling study (Fig 10: Kernel / CPU-to-DPU / DPU-to-CPU /
// DPU-to-DPU).
//
// DPUs execute independently between launches, so the system runs them on a
// goroutine pool — the multithreaded-simulation future work of Section III-D.
package host

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"upim/internal/config"
	"upim/internal/core"
	"upim/internal/linker"
	"upim/internal/mem"
	"upim/internal/stats"
)

// Phase buckets transfer and execution time like Fig 10.
type Phase int

const (
	// PhaseInput is initial CPU->DPU data distribution.
	PhaseInput Phase = iota
	// PhaseOutput is final DPU->CPU result retrieval.
	PhaseOutput
	// PhaseExchange is inter-kernel DPU->CPU->DPU communication (the
	// "DPU-to-DPU" bar: DPUs can only share data through the host).
	PhaseExchange
	numPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseInput:
		return "CPU-to-DPU"
	case PhaseOutput:
		return "DPU-to-CPU"
	case PhaseExchange:
		return "DPU-to-DPU"
	default:
		return fmt.Sprintf("phase?%d", int(p))
	}
}

// Report accumulates a run's wall-clock model.
type Report struct {
	KernelSeconds   float64
	TransferSeconds [numPhases]float64
	Launches        int
	// BytesIn/BytesOut are total transfer volumes (all phases).
	BytesIn, BytesOut uint64
}

// Total returns modeled end-to-end seconds.
func (r *Report) Total() float64 {
	t := r.KernelSeconds
	for _, s := range r.TransferSeconds {
		t += s
	}
	return t
}

// PhaseSeconds returns one transfer bucket.
func (r *Report) PhaseSeconds(p Phase) float64 { return r.TransferSeconds[p] }

// System is a host plus a set of DPUs running one linked program.
type System struct {
	cfg  config.Config
	prog *linker.Program
	dpus []*core.DPU

	phase Phase
	// pending per-DPU transfer bytes since the last flush.
	pendIn, pendOut []uint64

	report      Report
	maxKernelCy uint64 // per-launch watchdog

	// Launch scratch, reused across launches so steady-state launches do not
	// allocate.
	before []uint64
	errs   []error
	// arena is the DPU-shell arena borrowed from arenas until Release.
	arena *core.Arena
}

// NewSystem links obj for cfg and allocates n DPUs loaded with the program.
func NewSystem(obj *linker.Object, cfg config.Config, n int) (*System, error) {
	if obj == nil {
		return nil, fmt.Errorf("host: nil object (assemble or build a kernel first)")
	}
	prog, err := linker.Link(obj, cfg)
	if err != nil {
		return nil, err
	}
	return NewSystemFromProgram(prog, cfg, n)
}

// NewSystemFromProgram allocates n DPUs loaded with an already-linked
// program. The program must have been linked for the same mode as cfg; it is
// never mutated, so one Program may back many concurrent Systems (the sweep
// engine's build cache relies on this). The DPUs are recycled shells when the
// process's arena free list has them.
func NewSystemFromProgram(prog *linker.Program, cfg config.Config, n int) (*System, error) {
	if prog == nil {
		return nil, fmt.Errorf("host: nil program (link an object first)")
	}
	if n <= 0 {
		return nil, fmt.Errorf("host: need at least one DPU")
	}
	s := &System{
		cfg:         cfg,
		prog:        prog,
		dpus:        make([]*core.DPU, n),
		pendIn:      make([]uint64, n),
		pendOut:     make([]uint64, n),
		phase:       PhaseInput,
		maxKernelCy: 2_000_000_000,
		arena:       getArena(),
	}
	for i := 0; i < n; i++ {
		d, err := core.NewInArena(s.arena, i, prog, cfg)
		if err != nil {
			s.Release()
			return nil, err
		}
		s.dpus[i] = d
	}
	return s, nil
}

// Release returns the DPUs' shells to the process's free list for the next
// system. The system and any views into its DPUs must not be used
// afterwards; results must be copied out first. Release is idempotent.
func (s *System) Release() {
	for i, d := range s.dpus {
		if d != nil {
			d.Release()
			s.dpus[i] = nil
		}
	}
	if s.arena != nil {
		putArena(s.arena)
		s.arena = nil
	}
}

// arenas is the process's one free list of DPU-shell arenas: each System
// owns one from construction to Release, so every run recycles the shells
// the runs before it left, whichever engine drives it. Not a sync.Pool: the
// GC empties pools every cycle, and rebuilding a shell costs thousands of
// allocations. It holds at most as many arenas as were ever borrowed at once.
var (
	arenaMu sync.Mutex
	arenas  []*core.Arena
)

// getArena pops a recycled arena, or makes an empty one when none is free.
func getArena() *core.Arena {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	n := len(arenas)
	if n == 0 {
		return core.NewArena()
	}
	a := arenas[n-1]
	arenas[n-1] = nil
	arenas = arenas[:n-1]
	return a
}

// putArena returns an arena to the free list.
func putArena(a *core.Arena) {
	arenaMu.Lock()
	defer arenaMu.Unlock()
	arenas = append(arenas, a)
}

// NumDPUs returns the allocation size.
func (s *System) NumDPUs() int { return len(s.dpus) }

// Config returns the per-DPU configuration.
func (s *System) Config() config.Config { return s.cfg }

// Program returns the linked program (symbol lookups for hosts/tests).
func (s *System) Program() *linker.Program { return s.prog }

// DPU exposes one DPU (tests and advanced hosts).
func (s *System) DPU(i int) *core.DPU { return s.dpus[i] }

// SetWatchdog bounds each launch's per-DPU cycles.
func (s *System) SetWatchdog(cycles uint64) { s.maxKernelCy = cycles }

// SetPhase flushes pending transfers and switches the accounting bucket.
func (s *System) SetPhase(p Phase) {
	s.flushTransfers()
	s.phase = p
}

// flushTransfers converts accumulated per-DPU bytes into elapsed time:
// transfers to distinct DPUs proceed in parallel, each at the per-DPU
// channel bandwidth, so a burst of transfers costs the per-direction maximum.
func (s *System) flushTransfers() {
	var maxIn, maxOut uint64
	for i := range s.pendIn {
		maxIn = max(maxIn, s.pendIn[i])
		maxOut = max(maxOut, s.pendOut[i])
		s.pendIn[i], s.pendOut[i] = 0, 0
	}
	if maxIn == 0 && maxOut == 0 {
		return
	}
	sec := float64(maxIn)/s.cfg.CPUToDPUBytesPerSec + float64(maxOut)/s.cfg.DPUToCPUBytesPerSec
	s.report.TransferSeconds[s.phase] += sec
}

// CopyToMRAM writes data into a DPU's MRAM at a bank offset, charging the
// CPU->DPU channel (and prefaulting MMU pages, as the paper's measurement
// scenario assumes).
func (s *System) CopyToMRAM(dpu int, off uint32, data []byte) error {
	d := s.dpus[dpu]
	if err := d.MRAM().WriteBytes(off, data); err != nil {
		return err
	}
	if m := d.MMU(); m != nil {
		m.MapRange(off, len(data))
	}
	s.pendIn[dpu] += uint64(len(data))
	s.report.BytesIn += uint64(len(data))
	return nil
}

// CopyToWRAM writes data into a DPU's WRAM.
func (s *System) CopyToWRAM(dpu int, addr uint32, data []byte) error {
	if err := s.dpus[dpu].WRAM().WriteBytes(addr, data); err != nil {
		return err
	}
	s.pendIn[dpu] += uint64(len(data))
	s.report.BytesIn += uint64(len(data))
	return nil
}

// WriteArgs writes the 16-word launch argument block.
func (s *System) WriteArgs(dpu int, args ...uint32) error {
	if len(args) > linker.ArgWords {
		return fmt.Errorf("host: %d args exceed the %d-word block", len(args), linker.ArgWords)
	}
	buf := make([]byte, 4*len(args))
	for i, a := range args {
		binary.LittleEndian.PutUint32(buf[4*i:], a)
	}
	return s.CopyToWRAM(dpu, 0, buf)
}

// ReadMRAM retrieves data from a DPU's MRAM, charging the DPU->CPU channel.
func (s *System) ReadMRAM(dpu int, off uint32, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := s.ReadMRAMInto(dpu, off, buf); err != nil {
		return nil, err
	}
	return buf, nil
}

// ReadMRAMInto fills buf from a DPU's MRAM starting at off. It is the
// allocation-free variant of ReadMRAM for hot verification loops that
// reuse one scratch buffer across DPUs.
func (s *System) ReadMRAMInto(dpu int, off uint32, buf []byte) error {
	if err := s.dpus[dpu].MRAM().ReadBytes(off, buf); err != nil {
		return err
	}
	s.pendOut[dpu] += uint64(len(buf))
	s.report.BytesOut += uint64(len(buf))
	return nil
}

// ReadWRAM retrieves data from a DPU's WRAM.
func (s *System) ReadWRAM(dpu int, addr uint32, n int) ([]byte, error) {
	buf := make([]byte, n)
	if err := s.dpus[dpu].WRAM().ReadBytes(addr, buf); err != nil {
		return nil, err
	}
	s.pendOut[dpu] += uint64(n)
	s.report.BytesOut += uint64(n)
	return buf, nil
}

// MRAMBaseAddr converts a bank offset into the absolute address kernels use.
func MRAMBaseAddr(off uint32) uint32 { return mem.MRAMBase + off }

// Launch flushes pending transfers and runs every DPU's kernel to
// completion in parallel; kernel time advances by the slowest DPU.
// Cancelling ctx aborts the launch: running DPUs return promptly and Launch
// reports ctx.Err().
func (s *System) Launch(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	s.flushTransfers()
	n := len(s.dpus)
	if cap(s.before) < n {
		s.before = make([]uint64, n)
		s.errs = make([]error, n)
	}
	before, errs := s.before[:n], s.errs[:n]
	for i, d := range s.dpus {
		before[i] = d.Cycles()
		errs[i] = nil
		if s.report.Launches > 0 {
			d.Relaunch()
		}
	}

	// DPUs are independent between launches, so each worker takes one
	// contiguous batch of DPUs instead of pulling single indices off a
	// channel: no per-DPU channel handshake, and a single-DPU (or
	// single-worker) launch runs inline on this goroutine.
	workers := min(n, runtime.GOMAXPROCS(0))
	if workers <= 1 {
		for i, d := range s.dpus {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = d.Run(ctx, s.maxKernelCy)
		}
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			lo, hi := w*n/workers, (w+1)*n/workers
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					if err := ctx.Err(); err != nil {
						errs[i] = err
						continue
					}
					errs[i] = s.dpus[i].Run(ctx, s.maxKernelCy)
				}
			}()
		}
		wg.Wait()
	}

	if err := launchError(s.report.Launches, ctx.Err(), errs); err != nil {
		return err
	}
	var maxCycles uint64
	for i, d := range s.dpus {
		maxCycles = max(maxCycles, d.Cycles()-before[i])
	}
	s.report.KernelSeconds += s.cfg.CyclesToSeconds(maxCycles)
	s.report.Launches++
	return nil
}

// launchError selects the error a finished launch reports. Real worker
// failures (faults, watchdog expiries) win over plain cancellation — a DPU
// fault that races a context cancellation must not be masked by it — and
// are wrapped with the failing DPU's index for debuggability. Cancellation
// is reported only when no worker failed for a more specific reason.
func launchError(launch int, ctxErr error, errs []error) error {
	for i, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return fmt.Errorf("host: launch %d: dpu %d: %w", launch, i, err)
		}
	}
	if ctxErr != nil {
		return fmt.Errorf("host: launch %d: %w", launch, ctxErr)
	}
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("host: launch %d: dpu %d: %w", launch, i, err)
		}
	}
	return nil
}

// Report flushes pending transfers and returns the accumulated timing model.
func (s *System) Report() Report {
	s.flushTransfers()
	return s.report
}

// AggregateStats sums the per-DPU statistics (Cycles becomes the max).
func (s *System) AggregateStats() stats.DPU {
	var agg stats.DPU
	for _, d := range s.dpus {
		agg.Add(d.Stats())
	}
	return agg
}
