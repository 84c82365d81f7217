package explore

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
	"upim/internal/serve"
)

// Level is one setting of a design axis: a display label, the mutation it
// applies to a simulation point, and a unitless hardware-cost contribution.
//
// Costs follow one convention across all built-in axes so Pareto frontiers
// over (time, cost) are meaningful: the baseline level costs 0 and each
// doubling of a hardware resource (frequency, link width, DPU count) or each
// added microarchitectural feature (an ILP letter, a cache hierarchy, a
// vector unit) adds 1. Software-only knobs (tasklet count) are free.
type Level struct {
	Label string
	Cost  float64
	Apply func(*engine.Point)

	// value is the spec value ParseAxes reads the level back from when it
	// is not the label (a link level labelled "x4" is spec value "4").
	value string
}

// Axis is one named design dimension: an ordered list of levels, the first
// of which is conventionally the baseline. Axes are applied to a point in
// the order they appear in the Space, so order matters when levels touch the
// same configuration field (e.g. an ILP "F" level doubles whatever clock a
// frequency axis selected).
type Axis struct {
	Name   string
	Levels []Level
}

// NewAxis builds a custom axis from explicit levels. The built-in
// constructors below cover the paper's pathfinding dimensions; NewAxis is
// the escape hatch for sweeping any other config.Config field.
func NewAxis(name string, levels ...Level) Axis {
	if name == "" || len(levels) == 0 {
		panic("explore: axis needs a name and at least one level")
	}
	return Axis{Name: name, Levels: levels}
}

type builtin struct {
	name, about string
	level       func(v string) (Level, error) // the Level is unused on error
}

// builtins declares each built-in axis once, in the order usage text and
// errors list them: its name, what it sweeps, and how one spec value
// becomes its Level — label, cost and mutation. ParseAxes and the typed
// constructors both build through it.
var builtins = []builtin{
	{"arch", "architecture backend", archLevel},
	{"tasklets", "threads per DPU, warps under simt", counted("%d", free, func(p *engine.Point, n int) { p.Config.NumTasklets = n })},
	{"dpus", "DPU allocation size", counted("%d", doublings, func(p *engine.Point, n int) { p.DPUs = n })},
	{"freq", "DPU clock in MHz", counted("%d", freqCost, func(p *engine.Point, f int) { p.Config.FreqMHz = f })},
	{"link", "MRAM-WRAM link width multiplier", counted("x%d", doublings, func(p *engine.Point, s int) { p.Config.LinkBytesPerCycle *= s })},
	{"ilp", "Fig 12 features, a subset of DRSF or base", ilpLevel},
	{"mode", "memory organisation", modeLevel},
	{"policy", "serving scheduler of the p99 goal", policyLevel},
}

// buildAxis builds the named built-in axis, one level per value.
func buildAxis[T any](name string, values []T) (Axis, error) {
	i := slices.IndexFunc(builtins, func(b builtin) bool { return b.name == name })
	if i < 0 {
		names := make([]string, len(builtins))
		for j, b := range builtins {
			names[j] = b.name
		}
		return Axis{}, fmt.Errorf("explore: unknown axis %q (want %s)", name, strings.Join(names, ", "))
	}
	if len(values) == 0 {
		return Axis{}, fmt.Errorf("explore: axis %q has no levels", name)
	}
	a := Axis{Name: name}
	for _, v := range values {
		l, err := builtins[i].level(fmt.Sprint(v))
		if err != nil {
			return Axis{}, fmt.Errorf("explore: axis %q: %w", name, err)
		}
		a.Levels = append(a.Levels, l)
	}
	return a, nil
}

// must is a typed constructor's contract: a bad value panics.
func must(a Axis, err error) Axis {
	if err != nil {
		panic(err.Error())
	}
	return a
}

// Tasklets sweeps the threads launched per DPU, a free software knob. Under
// ModeSIMT it counts warps: Space.Points multiplies it by the SIMT width
// after every axis has applied, so axis order cannot change the lanes.
func Tasklets(counts ...int) Axis { return must(buildAxis("tasklets", counts)) }

// DPUs sweeps the DPU allocation size. Cost is log2(n).
func DPUs(counts ...int) Axis { return must(buildAxis("dpus", counts)) }

// FrequencyMHz sweeps the DPU clock, which must divide the tick clock. Cost
// is log2(f/350), so the paper's 700 MHz "F" point costs 1.
func FrequencyMHz(mhz ...int) Axis { return must(buildAxis("freq", mhz)) }

// LinkScale sweeps the MRAM-to-WRAM link bandwidth as a multiplier over the
// Table I width (Fig 13), labelled "x1", "x2", .... Cost is log2(scale).
func LinkScale(scales ...int) Axis { return must(buildAxis("link", scales)) }

// ILP sweeps the additive Fig 12 feature ladder (config.ParseILP; "" or
// "base" is the baseline). Cost is the number of enabled features.
func ILP(variants ...string) Axis { return must(buildAxis("ilp", variants)) }

// Modes sweeps the memory organisation: the scratchpad baseline (cost 0),
// the case-study 4 cache hierarchy (1) or the case-study 1 SIMT vector
// engine (2). Benchmarks without a kernel for a mode are constrained out.
func Modes(modes ...config.Mode) Axis { return must(buildAxis("mode", modes)) }

// Archs sweeps the architecture backend by machine-description name
// (machine.Names). "upmem" keeps the point on the native cycle-exact core
// at cost 0; any other level attaches its description — shared read-only
// by every point, and part of the point's content address — at a cost of
// log2 of its per-site MAC lanes.
func Archs(names ...string) Axis { return must(buildAxis("arch", names)) }

// Policies sweeps the serving scheduler GoalP99 scores a point under
// (serve.NewPolicy). Host software: free, with a no-op Apply, so all levels
// share one store key and a sweep over N policies simulates once.
func Policies(names ...string) Axis { return must(buildAxis("policy", names)) }

// counted declares an integer axis: a positive spec value n is labelled
// by format, priced by cost (which may also refuse it) and set by apply.
func counted(format string, cost func(int) (float64, error), apply func(*engine.Point, int)) func(string) (Level, error) {
	return func(v string) (Level, error) {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return Level{}, fmt.Errorf("%q is not a positive integer", v)
		}
		c, err := cost(n)
		return Level{Label: fmt.Sprintf(format, n), Cost: c, value: strconv.Itoa(n),
			Apply: func(p *engine.Point) { apply(p, n) }}, err
	}
}

func free(int) (float64, error)        { return 0, nil }
func doublings(n int) (float64, error) { return math.Log2(float64(n)), nil }

func freqCost(f int) (float64, error) {
	if config.TickFrequencyMHz%f != 0 {
		return 0, fmt.Errorf("%d MHz does not divide the %d MHz tick clock (350 and its multiples/divisors work)",
			f, config.TickFrequencyMHz)
	}
	return math.Log2(float64(f) / float64(config.LinkReferenceFreqMHz)), nil
}

func archLevel(name string) (Level, error) {
	if name == machine.ArchUPMEM {
		return Level{Label: name, Apply: func(p *engine.Point) { p.Machine = nil }}, nil
	}
	desc, err := machine.Named(name)
	if err != nil {
		return Level{}, err
	}
	return Level{Label: name, Cost: desc.ArchCost(), Apply: func(p *engine.Point) { p.Machine = desc }}, nil
}

func ilpLevel(v string) (Level, error) {
	features, err := config.ParseILP(v)
	return Level{Label: cmp.Or(features, "base"), Cost: float64(len(features)),
		Apply: func(p *engine.Point) { p.Config = p.Config.WithILP(features) }}, err
}

func modeLevel(v string) (Level, error) {
	m, err := config.ParseMode(v)
	cost := [...]float64{config.ModeScratchpad: 0, config.ModeCache: 1, config.ModeSIMT: 2}[m]
	return Level{Label: m.String(), Cost: cost, Apply: func(p *engine.Point) { p.Config.Mode = m }}, err
}

func policyLevel(name string) (Level, error) {
	_, err := serve.NewPolicy(name, nil)
	return Level{Label: name, Apply: func(*engine.Point) {}}, err
}
