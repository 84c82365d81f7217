// Package prim reimplements the PrIM benchmark suite (Gómez-Luna et al.)
// against the uPIMulator-Go toolchain: 16 data-intensive workloads, each in
// a scratchpad-centric variant (DMA staging, the baseline UPMEM model) and a
// cache-centric variant (direct loads/stores through the case-study 4
// caches), plus multi-DPU partitioning and host-side golden verification.
//
// Every run is functionally cross-validated: the DPU-computed outputs are
// compared against a pure-Go reference, standing in for the paper's
// validation against real UPMEM hardware.
package prim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"sync"

	"upim/internal/config"
	"upim/internal/core"
	"upim/internal/energy"
	"upim/internal/host"
	"upim/internal/kbuild"
	"upim/internal/linker"
	"upim/internal/stats"
)

// Typed sentinel errors for programmatic handling; match with errors.Is.
var (
	// ErrUnknownBenchmark reports a benchmark name outside the PrIM suite.
	ErrUnknownBenchmark = errors.New("prim: unknown benchmark")
	// ErrUnsupportedMode reports a (benchmark, memory mode) combination with
	// no kernel variant (e.g. SIMT on anything but GEMV).
	ErrUnsupportedMode = errors.New("prim: unsupported mode")
	// ErrTooManyTasklets reports a tasklet count above a benchmark's
	// WRAM-footprint limit.
	ErrTooManyTasklets = errors.New("prim: too many tasklets")
)

// Scale selects dataset sizes.
type Scale int

const (
	// ScaleTiny is for unit tests (sub-second full-suite runs).
	ScaleTiny Scale = iota
	// ScaleSmall is the default for benchmarks and figure regeneration.
	ScaleSmall
	// ScalePaper approximates Table II's single-DPU datasets.
	ScalePaper
)

// scales names every Scale, indexed by it: the one table String, ParseScale
// and Benchmark.Params read.
var scales = [...]string{"tiny", "small", "paper"}

func (s Scale) valid() bool { return s >= 0 && int(s) < len(scales) }

func (s Scale) String() string {
	if s.valid() {
		return scales[s]
	}
	return fmt.Sprintf("scale?%d", int(s))
}

// ParseScale is the inverse of Scale.String: it maps "tiny", "small" or
// "paper" back to the scale constant — the wire form the coordinator's space
// spec and the CLIs share.
func ParseScale(s string) (Scale, error) {
	if i := slices.Index(scales[:], s); i >= 0 {
		return Scale(i), nil
	}
	return 0, unknownScale(strconv.Quote(s))
}

// unknownScale is the error for a scale outside the table; what names it.
func unknownScale(what string) error {
	return fmt.Errorf("unknown scale %s (want %s, %s or %s)", what, scales[0], scales[1], scales[2])
}

// Params carries per-benchmark dataset knobs. Meaning varies by benchmark;
// N is always the primary element count.
type Params struct {
	N         int
	M         int // rows / secondary dimension
	Bins      int
	Layers    int
	Queries   int
	Window    int
	NNZPerRow int
	Seed      int64
}

// Benchmark is one PrIM workload: a row of Table II (the suite).
type Benchmark struct {
	Name string
	// About is a one-line description (Table II row).
	About string
	// sizes holds the datasets, indexed by Scale; Params reads them.
	sizes [len(scales)]Params
	// build lowers the kernel for a mode Build lets through.
	build func(mode config.Mode) (*linker.Object, error)
	// host distributes data, launches (possibly repeatedly), retrieves and
	// verifies results against the golden model through x. Cancelling ctx
	// aborts in-flight launches.
	host func(ctx context.Context, x *xfer, p Params) error
	// SupportsSIMT marks benchmarks with a SIMT kernel variant.
	SupportsSIMT bool
}

// Params returns the benchmark's dataset sizes at scale s. A scale outside
// tiny, small and paper is an error.
func (b *Benchmark) Params(s Scale) (Params, error) {
	if !s.valid() {
		return Params{}, unknownScale(strconv.Itoa(int(s)))
	}
	return b.sizes[s], nil
}

// Build lowers the benchmark's kernel for a mode. Every benchmark has a
// scratchpad and a cache kernel, and a SIMT one exactly when SupportsSIMT
// says so — Build decides, not the emitters — so any other request fails
// with ErrUnsupportedMode.
func (b *Benchmark) Build(mode config.Mode) (*linker.Object, error) {
	if err := b.hasKernel(mode); err != nil {
		return nil, err
	}
	return b.build(mode)
}

func (b *Benchmark) hasKernel(mode config.Mode) error {
	if mode == config.ModeScratchpad || mode == config.ModeCache || (mode == config.ModeSIMT && b.SupportsSIMT) {
		return nil
	}
	return fmt.Errorf("%w: %s has no %v kernel variant", ErrUnsupportedMode, b.Name, mode)
}

// Check decides whether the benchmark can run under cfg: a scalar tasklet
// count above kbuild.MaxTasklets, what every per-tasklet static is sized
// for, fails with ErrTooManyTasklets, then a mode without a kernel with
// ErrUnsupportedMode. RunSpec and the explorer's feasibility both ask it.
func (b *Benchmark) Check(cfg config.Config) error {
	if cfg.Mode != config.ModeSIMT && cfg.NumTasklets > kbuild.MaxTasklets {
		return fmt.Errorf("%w: %s supports at most %d tasklets (WRAM footprint), got %d",
			ErrTooManyTasklets, b.Name, kbuild.MaxTasklets, cfg.NumTasklets)
	}
	return b.hasKernel(cfg.Mode)
}

// Result captures one run's outputs for the figure drivers.
type Result struct {
	Benchmark string
	// Arch names the architecture backend that produced the result; the
	// empty string means the native cycle-exact UPMEM core (results
	// predating multiple backends stay valid unchanged). It selects the
	// default TechProfile when Energy is called with nil.
	Arch     string `json:",omitempty"`
	Mode     config.Mode
	Tasklets int
	DPUs     int
	// Config is the full hardware configuration the point ran under — the
	// provenance energy and downstream models need (frequency for leakage
	// integration, mode for traffic routing).
	Config config.Config
	Report host.Report
	Stats  stats.DPU
	PerDPU []stats.DPU
}

// Energy computes the run's event-level energy under profile p (nil selects
// the committed default for the result's architecture): per-DPU kernel
// event energy — so each DPU's leakage integrates its own cycles — plus
// host-channel transfer energy. Energy is a pure function of the result
// record, so results loaded back from a pathfinding store yield
// bit-identical reports to the run that produced them.
func (r *Result) Energy(p *energy.TechProfile) energy.Report {
	if p == nil {
		p = energy.DefaultFor(r.Arch)
	}
	return energy.OfRun(p, r.Config, r.PerDPU, r.Report.BytesIn, r.Report.BytesOut)
}

// Spec is one fully-specified simulation point.
type Spec struct {
	Benchmark string
	Config    config.Config
	DPUs      int
	Scale     Scale
	// Watchdog bounds each launch's per-DPU cycles (0 = the host default).
	Watchdog uint64
	// Cache, when non-nil, reuses assembled objects and linked programs
	// across runs that share a kernel (sweeps build each kernel once).
	Cache *BuildCache
	// Arena, when non-nil, recycles DPU shells across runs. Single-owner:
	// a sweep worker passes its own arena with every spec it executes.
	Arena *core.Arena
}

// RunSpec executes one simulation point and verifies its output against the
// host golden model. Cancelling ctx aborts in-flight launches with ctx.Err().
func RunSpec(ctx context.Context, sp Spec) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	name, cfg := sp.Benchmark, sp.Config
	b, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if err := b.Check(cfg); err != nil {
		return nil, err
	}
	p, err := b.Params(sp.Scale)
	if err != nil {
		return nil, fmt.Errorf("prim: %s: %w", name, err)
	}
	prog, err := sp.Cache.program(b, cfg)
	if err != nil {
		return nil, fmt.Errorf("prim: %s: %w", name, err)
	}
	sys, err := host.NewSystemFromProgramInArena(prog, cfg, sp.DPUs, sp.Arena)
	if err != nil {
		return nil, fmt.Errorf("prim: %s: %w", name, err)
	}
	// Results below are value copies (stats whose growable parts the core
	// detaches at reinit), so the DPU shells can be recycled on every path
	// out of this function.
	defer sys.Release()
	if sp.Watchdog > 0 {
		sys.SetWatchdog(sp.Watchdog)
	}
	x := scratchPool.Get().(*xfer)
	err = x.run(ctx, sys, b.host, p)
	scratchPool.Put(x)
	if err != nil {
		return nil, fmt.Errorf("prim: %s (%v, %d tasklets, %d DPUs): %w",
			name, cfg.Mode, cfg.NumTasklets, sp.DPUs, err)
	}
	res := &Result{
		Benchmark: name,
		Mode:      cfg.Mode,
		Tasklets:  cfg.NumTasklets,
		DPUs:      sp.DPUs,
		Config:    cfg,
		Report:    sys.Report(),
		Stats:     sys.AggregateStats(),
	}
	for i := 0; i < sp.DPUs; i++ {
		res.PerDPU = append(res.PerDPU, *sys.DPU(i).Stats())
	}
	return res, nil
}

// --- shared host-side helpers -------------------------------------------

// randCache memoizes workload input vectors. randI32s is a pure function
// of (n, bound, seed) and a sweep's steady state regenerates identical
// inputs at every point, so all runs share one immutable copy and input
// generation is allocation-free after the first run of each shape. The
// cache is never evicted; it holds one vector per distinct (benchmark,
// scale) shape exercised by the process.
var randCache sync.Map // randKey -> []int32

type randKey struct {
	n     int
	bound int32
	seed  int64
}

// randI32s generates n values in [0, bound) from a seed. The result is
// shared across calls and MUST be treated as read-only; copy before
// mutating.
func randI32s(n int, bound int32, seed int64) []int32 {
	k := randKey{n, bound, seed}
	if v, ok := randCache.Load(k); ok {
		return v.([]int32)
	}
	r := rand.New(rand.NewSource(seed))
	out := make([]int32, n)
	for i := range out {
		out[i] = r.Int31n(bound)
	}
	v, _ := randCache.LoadOrStore(k, out)
	return v.([]int32)
}

// ranges splits n items into parts contiguous ranges, each aligned to align
// items (except possibly the last).
func ranges(n, parts, align int) [][2]int {
	out := make([][2]int, parts)
	chunk := (n + parts - 1) / parts
	chunk = (chunk + align - 1) / align * align
	for i := 0; i < parts; i++ {
		lo := min(i*chunk, n)
		hi := min(lo+chunk, n)
		out[i] = [2]int{lo, hi}
	}
	return out
}

// checkI32s compares DPU output with the golden model.
func checkI32s(what string, got, want []int32) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			return fmt.Errorf("%s: element %d = %d, want %d", what, i, got[i], want[i])
		}
	}
	return nil
}
