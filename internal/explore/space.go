package explore

import (
	"fmt"
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

// Space is a design space: the Cartesian product of axis levels over a base
// configuration, instantiated for every benchmark, minus the combinations
// the point's machine backend refuses (machine.Backend.Check: on UPMEM no
// kernel for the mode, too many tasklets, an invalid configuration) or user
// constraints reject.
type Space struct {
	// Benchmarks are the PrIM workloads to explore.
	Benchmarks []string
	// Base is the configuration axes mutate (default: the paper's Table I).
	Base config.Config
	// Scale selects dataset sizes for every point.
	Scale prim.Scale
	// DPUs is the base allocation size (default 1); a DPUs axis overrides it.
	DPUs int
	// Axes are applied in order to each point.
	Axes []Axis

	keep []func(Point) bool
}

// NewSpace builds a space over the Table I base configuration at ScaleSmall.
// Mutate the exported fields to change base config, scale or DPU count.
func NewSpace(benchmarks []string, axes ...Axis) *Space {
	return &Space{
		Benchmarks: benchmarks,
		Base:       config.Default(),
		Scale:      prim.ScaleSmall,
		DPUs:       1,
		Axes:       axes,
	}
}

// Constrain adds a user constraint: points for which keep returns false are
// dropped from the space. Constraints stack.
func (s *Space) Constrain(keep func(Point) bool) *Space {
	s.keep = append(s.keep, keep)
	return s
}

// Constrained reports whether user constraints were added via Constrain.
// Constraints are functions and cannot serialize, so a constrained space
// cannot be described to remote workers by a wire spec.
func (s *Space) Constrained() bool { return len(s.keep) > 0 }

// Size returns the unconstrained point count (benchmarks times the product
// of axis level counts); Points may return fewer after constraints.
func (s *Space) Size() int {
	n := len(s.Benchmarks)
	for _, a := range s.Axes {
		n *= len(a.Levels)
	}
	return n
}

// Points enumerates the constrained space in deterministic order: benchmarks
// outermost, then axes row-major in declaration order. It errors on
// structural problems (no benchmarks, an unknown benchmark, duplicate axis
// names); infeasible level combinations are silently constrained out.
func (s *Space) Points() ([]Point, error) {
	if len(s.Benchmarks) == 0 {
		return nil, fmt.Errorf("explore: space has no benchmarks")
	}
	seen := make(map[string]bool, len(s.Axes))
	for _, a := range s.Axes {
		if seen[a.Name] {
			return nil, fmt.Errorf("explore: duplicate axis %q", a.Name)
		}
		seen[a.Name] = true
	}
	var pts []Point
	for _, name := range s.Benchmarks {
		if _, err := prim.ByName(name); err != nil {
			return nil, err
		}
		combo := make([]int, len(s.Axes))
		for {
			p := s.instantiate(name, combo)
			if s.feasible(p) {
				pts = append(pts, p)
			}
			if !advance(combo, s.Axes) {
				break
			}
		}
	}
	return pts, nil
}

// instantiate applies one level combination to a fresh base point.
func (s *Space) instantiate(bench string, combo []int) Point {
	dpus := s.DPUs
	if dpus < 1 {
		dpus = 1
	}
	p := Point{
		Benchmark: bench,
		Labels:    make([]string, len(combo)),
		EP:        engine.Point{Benchmark: bench, Config: s.Base, DPUs: dpus, Scale: s.Scale},
	}
	parts := make([]string, len(combo))
	for i, li := range combo {
		lv := s.Axes[i].Levels[li]
		lv.Apply(&p.EP)
		p.Labels[i] = lv.Label
		p.Cost += lv.Cost
		parts[i] = s.Axes[i].Name + "=" + lv.Label
	}
	p.Design = "base"
	if len(parts) > 0 {
		p.Design = strings.Join(parts, " ")
	}
	// Under SIMT the configured tasklet count — whether from the base config
	// or a tasklets axis — names warps; expand to lanes only after every
	// axis has applied, so axis declaration order cannot change the count.
	if p.EP.Config.Mode == config.ModeSIMT {
		p.EP.Config.NumTasklets *= max(p.EP.Config.SIMTWidth, 1)
	}
	return p
}

// feasible applies the point's backend's rule (engine.Point.Check) plus any
// user constraints.
func (s *Space) feasible(p Point) bool {
	if p.EP.Check() != nil {
		return false
	}
	for _, keep := range s.keep {
		if !keep(p) {
			return false
		}
	}
	return true
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
