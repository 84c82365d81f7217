// Package upim is uPIMulator-Go: a cycle-level simulation framework for
// UPMEM-style general-purpose processing-in-memory systems, reproducing
// "Pathfinding Future PIM Architectures by Demystifying a Commercial PIM
// Technology" (HPCA 2024).
//
// # Running workloads
//
// The primary entry point is the Runner: construct one with functional
// options, then run verified PrIM workloads under the Table I
// microarchitecture model — revolver scheduling, odd/even register-file
// hazards, WRAM/IRAM scratchpads, a DDR4-2400 MRAM bank with FR-FCFS, and
// asymmetric CPU<->DPU links:
//
//	r, err := upim.NewRunner(upim.WithTasklets(16), upim.WithScale(upim.ScaleSmall))
//	res, err := r.Run(ctx, "VA")
//
// Sweep-style characterization — the paper's methodology — runs many
// (benchmark, config, #DPUs) points concurrently on a bounded worker pool,
// building each unique kernel exactly once, and returns the results in input
// order:
//
//	points := []upim.Point{{Benchmark: "VA", DPUs: 1}, {Benchmark: "VA", DPUs: 16}, ...}
//	results, err := r.Sweep(ctx, points) // results[i] holds points[i]
//
// Design-space exploration — the paper's pathfinding methodology — layers
// typed axes and a persistent content-addressed result store on top of the
// sweep engine: build a DesignSpace from axes (AxisTasklets, AxisILP,
// AxisLinkScale, ...), then Explore it. Finished points persist, so
// interrupted or repeated explorations resume without re-simulating
// anything; Exploration extracts Pareto frontiers over configurable goals —
// time, hardware cost, energy, energy-delay product (ParseGoals) — plus
// ranked best configs and per-point energy breakdowns as artifacts
// (cmd/pathfind is the CLI front end).
//
// Energy and power come from an event-level model (EnergyOf, EnergyReport):
// every joule is a deterministic, linear function of a run's event counters
// under a JSON-loadable TechProfile (LoadTechProfile), so energy is
// bit-identical across sweep parallelism and store resumes.
//
// Every run is cancellable through its context, including mid-kernel;
// failures surface the typed errors ErrUnknownBenchmark, ErrUnsupportedMode,
// ErrTooManyTasklets and ErrWatchdogExpired. RunExperimentContext
// regenerates any of the paper's tables and figures on the same engine.
//
// # Toolchain
//
//   - Assemble/Link turn UPMEM-style assembly into loadable DPU programs
//     (the paper's custom lexer/parser/assembler/linker).
//   - NewSystem allocates a host plus a set of simulated DPUs for running
//     hand-written kernels; System.Launch(ctx) executes them.
//
// Case-study hardware is a configuration away: WithILP("DRSF") for the
// Fig 12 ILP ladder, WithMode(ModeCache) for the on-demand-cache design,
// WithMode(ModeSIMT) (+ SIMTCoalesce) for the vector engine, MMU.Enable for
// address translation.
package upim

import (
	"context"

	"upim/internal/artifact"
	"upim/internal/asm"
	"upim/internal/config"
	"upim/internal/core"
	"upim/internal/engine"
	"upim/internal/figures"
	"upim/internal/host"
	"upim/internal/linker"
	"upim/internal/mem"
	"upim/internal/prim"
	"upim/internal/stats"
)

// Typed sentinel errors; match with errors.Is.
var (
	// ErrUnknownBenchmark reports a benchmark name outside the PrIM suite.
	ErrUnknownBenchmark = prim.ErrUnknownBenchmark
	// ErrUnsupportedMode reports a (benchmark, memory mode) combination with
	// no kernel variant (e.g. SIMT on anything but GEMV).
	ErrUnsupportedMode = prim.ErrUnsupportedMode
	// ErrTooManyTasklets reports a tasklet count above a benchmark's
	// WRAM-footprint limit.
	ErrTooManyTasklets = prim.ErrTooManyTasklets
	// ErrWatchdogExpired reports a kernel that exceeded its cycle budget.
	ErrWatchdogExpired = core.ErrWatchdogExpired
)

// Config is the full DPU/system hardware configuration (defaults = the
// paper's Table I).
type Config = config.Config

// Mode selects the memory-system organisation.
type Mode = config.Mode

// Memory-system organisations.
const (
	ModeScratchpad = config.ModeScratchpad
	ModeCache      = config.ModeCache
	ModeSIMT       = config.ModeSIMT
)

// DefaultConfig returns the paper's Table I configuration.
func DefaultConfig() Config { return config.Default() }

// Object is an unlinked compilation unit; Program is a linked DPU image.
type (
	Object  = linker.Object
	Program = linker.Program
)

// Assemble lowers UPMEM-style assembly source into an Object.
func Assemble(name, src string) (*Object, error) { return asm.Assemble(name, src) }

// Link lays out and validates an Object for a configuration.
func Link(obj *Object, cfg Config) (*Program, error) { return linker.Link(obj, cfg) }

// System is a host CPU plus a set of simulated DPUs.
type System = host.System

// Report is the phase-bucketed timing model of a run (Fig 10's buckets).
type Report = host.Report

// Transfer-accounting phases.
const (
	PhaseInput    = host.PhaseInput
	PhaseOutput   = host.PhaseOutput
	PhaseExchange = host.PhaseExchange
)

// Stats is the per-DPU statistics record (utilization, idle breakdown,
// instruction mix, DRAM/cache/MMU counters).
type Stats = stats.DPU

// NewSystem links obj under cfg and allocates n DPUs.
func NewSystem(obj *Object, cfg Config, n int) (*System, error) {
	return host.NewSystem(obj, cfg, n)
}

// MRAMBase converts an MRAM bank offset into the absolute physical address
// kernels use (the paper's 0x08000000 MRAM window).
func MRAMBase(off uint32) uint32 { return mem.MRAMBase + off }

// Scale selects dataset sizes for benchmarks and experiments.
type Scale = prim.Scale

// Dataset scales.
const (
	ScaleTiny  = prim.ScaleTiny
	ScaleSmall = prim.ScaleSmall
	ScalePaper = prim.ScalePaper
)

// ParseScale is the inverse of Scale.String: "tiny", "small" or "paper";
// anything else is an error naming the three.
func ParseScale(s string) (Scale, error) { return prim.ParseScale(s) }

// Result is one verified PrIM run: the benchmark identity, the phase-
// bucketed timing report, and aggregate plus per-DPU statistics.
type Result = prim.Result

// CacheStats counts a Runner's build-cache activity.
type CacheStats = prim.CacheStats

// Benchmarks lists the PrIM suite in Table II order.
func Benchmarks() []string {
	var out []string
	for _, b := range prim.Benchmarks() {
		out = append(out, b.Name)
	}
	return out
}

// SuiteTable assembles RunSuite/Sweep results into an exportable artifact
// table — identity columns, phase timings in ms, and every stats counter —
// ready for WriteCSV/WriteJSON/WriteMarkdown/Fprint. Nil results (cancelled
// or failed points) are skipped.
func SuiteTable(title string, results []*Result) *ResultTable {
	return engine.ResultsTable(title, results)
}

// WriteReport writes per-table CSV, JSON and Markdown files plus a linking
// index.md into dir — the same browsable report `cmd/figures -out` emits.
func WriteReport(dir string, tables []*ResultTable) error {
	return artifact.WriteReport(dir, tables)
}

// CheckArtifact validates a regenerated experiment table against the
// embedded reference results for its key and dataset scale (committed at
// tiny scale), failing when any figure shifted beyond the relative eps
// (<= 0 selects the default 1%). This is the regression oracle behind
// `cmd/figures -check`.
func CheckArtifact(tab *ResultTable, eps float64) error {
	return figures.Check(tab, eps)
}

// Experiment regenerates one of the paper's tables or figures.
type Experiment = figures.Experiment

// ExperimentOptions parameterize RunExperimentContext.
type ExperimentOptions = figures.Options

// ResultTable is a typed experiment result grid: unit-annotated columns over
// cells that keep exact numeric values alongside display formatting. It
// renders to aligned console text (Fprint), CSV (WriteCSV), JSON
// (WriteJSON/DecodeTable round-trip) and Markdown (WriteMarkdown).
type ResultTable = figures.Table

// Experiments lists every reproducible table/figure.
func Experiments() []Experiment { return figures.Experiments() }

// RunExperimentContext regenerates one table/figure by ID (e.g. "fig5",
// "fig12", "mmu", "table1"), running its simulation points concurrently on
// the shared sweep engine. Cancelling ctx aborts the experiment.
func RunExperimentContext(ctx context.Context, id string, opts ExperimentOptions) (*ResultTable, error) {
	e, err := figures.ByID(id)
	if err != nil {
		return nil, err
	}
	tables, err := figures.Run(ctx, opts, e)
	return tables[0], err
}
