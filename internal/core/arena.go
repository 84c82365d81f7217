package core

import (
	"upim/internal/config"
	"upim/internal/linker"
)

// Arena recycles DPU shells across simulation runs. The host's process-wide
// free list lends one arena to each system for the system's lifetime: the
// system draws its DPUs from the arena (NewInArena) and returns them when
// the run's results have been copied out (Release), so steady-state
// execution anywhere in the process reuses the thread and warp slabs, the
// scheduler queue and bitset, the burst/sink/xfer slabs, the memories and
// the bank instead of re-allocating them per point.
//
// Ownership rules (see ARCHITECTURE.md "Memory discipline"):
//
//   - An arena is single-owner: it is NOT safe for concurrent use. Each
//     system gets its own.
//   - Release must only be called once the caller has stopped using every
//     reference into the DPU — its Stats(), WRAM(), MRAM() and Trace() views
//     alias storage the next NewInArena will reuse. Value copies (e.g.
//     Result.PerDPU's copied stats.DPU records) are safe: the parts that
//     would alias recycled storage (Timeline, the trace) are detached at
//     reinit rather than reused.
//   - A recycled DPU is bit-identical to a fresh one: New and NewInArena
//     share the reinit code path, and the arena-reuse determinism tests hold
//     them to identical counters and energy breakdowns.
type Arena struct {
	free []*DPU
}

// NewArena returns an empty arena.
func NewArena() *Arena { return &Arena{} }

// Size reports how many released shells the arena currently holds.
func (a *Arena) Size() int { return len(a.free) }

// NewInArena builds a DPU like New, recycling a released shell from a when
// one is available. A nil arena degrades to New.
func NewInArena(a *Arena, id int, prog *linker.Program, cfg config.Config) (*DPU, error) {
	if a == nil {
		return New(id, prog, cfg)
	}
	var d *DPU
	if n := len(a.free); n > 0 {
		d = a.free[n-1]
		a.free[n-1] = nil
		a.free = a.free[:n-1]
	} else {
		d = &DPU{}
	}
	if err := d.reinit(id, prog, cfg); err != nil {
		// A half-reinitialized shell is still structurally sound (reinit
		// only fails before any run state accrues); return it to the pool.
		d.released = true
		a.free = append(a.free, d)
		return nil, err
	}
	d.arena = a
	d.released = false
	return d, nil
}

// Release returns the DPU's shell to its arena for reuse. It is a no-op for
// DPUs built by New. The caller must not use the DPU (or views into it)
// afterwards: a second Release on an arena shell panics — silently
// appending the same shell twice would hand it to two owners and corrupt
// the free list — and Run on a released shell panics likewise.
func (d *DPU) Release() {
	if d.released {
		panic("core: DPU.Release called twice on the same arena shell")
	}
	a := d.arena
	if a == nil {
		return
	}
	d.arena = nil
	d.released = true
	a.free = append(a.free, d)
}
