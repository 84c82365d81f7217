package explore

import (
	"fmt"
	"slices"
	"strings"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/prim"
)

// Point is one fully-resolved design point of a space: a benchmark, the
// per-axis level labels that produced it (aligned with Space.Axes), a stable
// "tasklets=16 ilp=DRSF" design label, the summed hardware cost of the
// levels, and the concrete simulation point handed to the sweep engine.
type Point struct {
	Benchmark string
	// Labels holds the bare level label per axis, aligned with Space.Axes.
	Labels []string
	// Design is the joined "name=label" form ("base" for an axis-less space).
	Design string
	// Cost is the summed unitless hardware cost of the selected levels.
	Cost float64
	// EP is the simulation point the sweep engine executes.
	EP engine.Point
}

// Space is a design space: the Cartesian product of built-in axis levels
// over config.Default(), instantiated for every benchmark, minus the
// combinations the point's machine backend refuses (machine.Backend.Check:
// on UPMEM no kernel for the mode, too many tasklets, an invalid
// configuration). Its four fields are all a wire spec needs to rebuild it.
type Space struct {
	// Benchmarks are the PrIM workloads to explore.
	Benchmarks []string
	// Scale selects dataset sizes for every point.
	Scale prim.Scale
	// DPUs is the base allocation size (default 1); a DPUs axis overrides it.
	DPUs int
	// Axes are applied in order to each point.
	Axes []Axis
}

// NewSpace builds a space at ScaleSmall on one DPU; set Scale or DPUs to
// change either.
func NewSpace(benchmarks []string, axes ...Axis) *Space {
	return &Space{
		Benchmarks: benchmarks,
		Scale:      prim.ScaleSmall,
		DPUs:       1,
		Axes:       axes,
	}
}

// Size returns the raw point count (benchmarks times the product of axis
// level counts); Points returns fewer when backends refuse some.
func (s *Space) Size() int {
	n := len(s.Benchmarks)
	for _, a := range s.Axes {
		n *= len(a.Levels)
	}
	return n
}

// Check reports the space's structural problems without enumerating it: no
// benchmarks, an unknown benchmark, duplicate axis names, or a level that
// the built-in axis of its axis's name did not make (a hand-built level, or
// one moved under another name, which FormatAxes would spell as a different
// space).
func (s *Space) Check() error {
	if len(s.Benchmarks) == 0 {
		return fmt.Errorf("explore: space has no benchmarks")
	}
	for _, name := range s.Benchmarks {
		if _, err := prim.ByName(name); err != nil {
			return err
		}
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if seen[a.Name] {
			return fmt.Errorf("explore: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
		if len(a.Levels) == 0 || slices.ContainsFunc(a.Levels, func(l Level) bool { return l.apply == nil || l.axis != a.Name }) {
			return fmt.Errorf("explore: axis %q was not built by ParseAxes or a typed constructor of that name", a.Name)
		}
	}
	return nil
}

// Points enumerates the space's feasible points in deterministic order:
// benchmarks outermost, then axes row-major in declaration order. It errors
// on structural problems (Check); a point its backend refuses
// (engine.Point.Check) is silently left out.
func (s *Space) Points() ([]Point, error) {
	if err := s.Check(); err != nil {
		return nil, err
	}
	base := config.Default()
	pts := make([]Point, 0, s.Size())
	for _, name := range s.Benchmarks {
		combo := make([]int, len(s.Axes))
		for {
			if p := s.instantiate(name, base, combo); p.EP.Check() == nil {
				pts = append(pts, p)
			}
			if !advance(combo, s.Axes) {
				break
			}
		}
	}
	return pts, nil
}

// instantiate applies one level combination to a fresh point over base.
func (s *Space) instantiate(bench string, base config.Config, combo []int) Point {
	p := Point{
		Benchmark: bench,
		Labels:    make([]string, len(combo)),
		EP:        engine.Point{Benchmark: bench, Config: base, DPUs: max(s.DPUs, 1), Scale: s.Scale},
	}
	parts := make([]string, len(combo))
	for i, li := range combo {
		lv := s.Axes[i].Levels[li]
		lv.apply(&p.EP)
		p.Labels[i] = lv.Label
		p.Cost += lv.Cost
		parts[i] = s.Axes[i].Name + "=" + lv.Label
	}
	p.Design = "base"
	if len(parts) > 0 {
		p.Design = strings.Join(parts, " ")
	}
	// Under SIMT the tasklet count — the default's or a tasklets axis's —
	// names warps; expand to lanes only after every axis has applied, so
	// axis declaration order cannot change the count.
	if p.EP.Config.Mode == config.ModeSIMT {
		p.EP.Config.NumTasklets *= max(p.EP.Config.SIMTWidth, 1)
	}
	return p
}

// advance steps a row-major odometer over the axis levels; false means the
// product is exhausted.
func advance(combo []int, axes []Axis) bool {
	for i := len(combo) - 1; i >= 0; i-- {
		combo[i]++
		if combo[i] < len(axes[i].Levels) {
			return true
		}
		combo[i] = 0
	}
	return false
}
