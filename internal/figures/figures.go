// Package figures regenerates the paper's evaluation artifacts. Every table
// and figure is an Experiment that declares the simulation points it reads —
// (benchmark, config, #DPUs) tuples — and a projection from their results to
// its table. Run unions the points of every experiment it is given,
// simulates each distinct point once on the shared sweep engine (a bounded
// worker pool with a shared kernel build cache), and projects every table
// from that one result set. Runs are cancellable through their context.
//
// Projections return artifact.Table values: typed grids whose numeric cells
// keep their exact values alongside the display formatting, so the same
// result renders to the CLI, exports to CSV/JSON/Markdown (cmd/figures
// -out), and validates against the embedded reference results (Check,
// cmd/figures -check).
package figures

import (
	"context"
	"fmt"
	"sort"

	"upim/internal/artifact"
	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/explore"
	"upim/internal/isa"
	"upim/internal/prim"
)

// Table is the typed experiment result grid (see internal/artifact).
type Table = artifact.Table

// Options parameterize an experiment run.
type Options struct {
	// Scale selects dataset sizes (tiny for CI, small for figure
	// regeneration, paper for Table II sizes).
	Scale prim.Scale
	// Benchmarks restricts the suite (nil = all 16).
	Benchmarks []string
	// Parallelism bounds the sweep worker pool (<= 0 selects GOMAXPROCS).
	Parallelism int
	// Profile selects the energy model's TechProfile (nil = the committed
	// default); only the "energy" experiment reads it.
	Profile *energy.TechProfile
}

// names returns the selected benchmarks; with no selection, defaults, or
// the whole suite when none are given.
func (o Options) names(defaults ...string) []string {
	if len(o.Benchmarks) > 0 {
		return o.Benchmarks
	}
	if len(defaults) > 0 {
		return defaults
	}
	var out []string
	for _, b := range prim.Benchmarks() {
		out = append(out, b.Name)
	}
	return out
}

// engineFor returns the sweep engine experiments run on: the shared
// default-width engine, or one bounded to Options.Parallelism. Either way
// the engine is backed by sharedCache, so kernel builds are reused across
// runs within a process.
func (o Options) engineFor() *engine.Engine {
	if o.Parallelism > 0 {
		return engine.NewWithCache(o.Parallelism, sharedCache)
	}
	return sharedEngine
}

var (
	sharedCache  = prim.NewBuildCache()
	sharedEngine = engine.NewWithCache(0, sharedCache)
)

// Experiment is a registered figure/table. Plan declares the points the
// table reads, in the order its projection expects their results, and the
// projection that builds the table from them.
type Experiment struct {
	ID    string
	About string
	Plan  func(Options) ([]engine.Point, projection)
}

// projection builds an experiment's table from the results of its declared
// points, in declaration order.
type projection func([]*prim.Result) (*Table, error)

// Run regenerates the experiments' tables, in order, from one sweep: their
// points are unioned, each distinct point (by explore.KeyOf) is simulated
// once, and every projection reads its own points' results. A failed point
// fails only the experiments that declared it: their tables are nil, and
// the first such experiment's error, prefixed with its ID, is returned
// beside the other tables.
func Run(ctx context.Context, o Options, exps ...Experiment) ([]*Table, error) {
	type plan struct {
		project projection
		at      []int // each declared point's index in pts
	}
	plans := make([]plan, len(exps))
	var pts []engine.Point
	index := map[string]int{}
	for i, e := range exps {
		declared, project := e.Plan(o)
		plans[i].project = project
		for _, p := range declared {
			k := explore.KeyOf(p)
			j, ok := index[k]
			if !ok {
				j, index[k] = len(pts), len(pts)
				pts = append(pts, p)
			}
			plans[i].at = append(plans[i].at, j)
		}
	}
	var outs []engine.Outcome
	if len(pts) > 0 { // a point-free run pays for no sweep
		outs, _ = o.engineFor().SweepAll(ctx, pts)
	}
	tables := make([]*Table, len(exps))
	var first error
	for i, pl := range plans {
		results := make([]*prim.Result, len(pl.at))
		var err error
		for j, at := range pl.at {
			if results[j], err = outs[at].Result, outs[at].Err; err != nil {
				break
			}
		}
		if err == nil {
			tables[i], err = pl.project(results)
		}
		if err != nil && first == nil {
			first = fmt.Errorf("%s: %w", exps[i].ID, err)
		}
	}
	return tables, first
}

// aliases maps paper figure numbers onto canonical experiment IDs where the
// two diverge, so the experiment list resolves 1:1 against the paper's
// figure numbering: the MMU case study is the paper's Figure 14.
var aliases = map[string]string{"fig14": "mmu"}

var experiments = []Experiment{
	{"table1", "simulator configuration (paper Table I)", fixed(table1)},
	{"table2", "PrIM benchmark datasets (paper Table II)", table2},
	{"validation", "functional cross-validation sweep (Section III-C)", validation},
	{"fig5", "compute and DRAM-read-bandwidth utilization vs threads", fig5},
	{"fig6", "issue-slot latency breakdown", fig6},
	{"fig7", "issuable-thread histogram at 16 threads", fig7},
	{"fig8", "TLP timeline for BS / GEMV / SCAN-SSA", fig8},
	{"fig9", "instruction mix", fig9},
	{"fig10", "multi-DPU strong scaling latency breakdown and speedup", fig10},
	{"fig11", "SIMT case study on GEMV", fig11},
	{"fig12", "ILP ablation (D/R/S/F)", fig12},
	{"fig13", "MRAM-to-WRAM bandwidth scaling", fig13},
	{"mmu", "case study 3 (paper Fig 14; figures -exp fig14 works too): MMU translation overhead", mmuStudy},
	{"fig15", "cache-centric vs scratchpad-centric performance", fig15},
	{"fig16", "DRAM bytes read and runtime: BS and UNI, cache vs scratchpad", fig16},
	{"table3", "simulator comparison (paper Table III)", fixed(table3)},
	{"energy", "event-level energy breakdown per benchmark (internal/energy)", energyStudy},
	{"crossarch", "cross-architecture Pareto frontier: UPMEM DPU vs HBM-PIM bank-level MAC", crossArch},
}

// Experiments lists all registered experiments.
func Experiments() []Experiment { return experiments }

// ByID finds one experiment by its canonical ID or a paper-numbering alias
// (e.g. "fig14" resolves to the MMU case study).
func ByID(id string) (Experiment, error) {
	if canonical, ok := aliases[id]; ok {
		id = canonical
	}
	for _, e := range experiments {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("figures: unknown experiment %q (try: %s)", id, ids())
}

func ids() string {
	var out []string
	for _, e := range experiments {
		out = append(out, e.ID)
	}
	sort.Strings(out)
	return fmt.Sprint(out)
}

// fixed plans a table that reads no points and no options.
func fixed(project projection) func(Options) ([]engine.Point, projection) {
	return func(Options) ([]engine.Point, projection) { return nil, project }
}

func baseCfg(threads int) config.Config {
	cfg := config.Default()
	cfg.NumTasklets = threads
	return cfg
}

// newTable starts an experiment table stamped with the dataset scale it was
// generated at (reference validation refuses cross-scale comparisons).
func newTable(key, id, title string, o Options, cols ...artifact.Column) *Table {
	return &Table{Key: key, ID: id, Title: title, Scale: o.Scale.String(), Columns: cols}
}

// cols builds unit-less columns; col one annotated column.
func cols(names ...string) []artifact.Column { return artifact.Cols(names...) }

func col(name, unit string) artifact.Column { return artifact.Column{Name: name, Unit: unit} }

// pt declares one sweep point.
func pt(name string, cfg config.Config, dpus int, scale prim.Scale) engine.Point {
	return engine.Point{Benchmark: name, Config: cfg, DPUs: dpus, Scale: scale}
}

// grid declares the baseline point (scratchpad, 1 DPU) of every selected
// benchmark at each thread count, benchmark-major.
func grid(o Options, threads ...int) []engine.Point {
	var pts []engine.Point
	for _, name := range o.names() {
		for _, th := range threads {
			pts = append(pts, pt(name, baseCfg(th), 1, o.Scale))
		}
	}
	return pts
}

// pairs declares, per benchmark and thread count, a scratchpad point on
// dpus DPUs followed by its cache-mode twin.
func pairs(o Options, names []string, dpus int, threads []int) []engine.Point {
	var pts []engine.Point
	for _, name := range names {
		for _, th := range threads {
			cached := baseCfg(th)
			cached.Mode = config.ModeCache
			pts = append(pts, pt(name, baseCfg(th), dpus, o.Scale), pt(name, cached, dpus, o.Scale))
		}
	}
	return pts
}

// seconds is a run's kernel time at the clock it ran under.
func seconds(res *prim.Result) float64 { return res.Config.CyclesToSeconds(res.Stats.Cycles) }

var sweepThreads = []int{1, 4, 16}

// ---- Section IV characterization ---------------------------------------

// fig5 reports compute utilization (IPC / peak) and DRAM read bandwidth
// utilization (vs the ~600 MB/s the paper normalizes against).
func fig5(o Options) ([]engine.Point, projection) {
	return grid(o, sweepThreads...), func(results []*prim.Result) (*Table, error) {
		t := newTable("fig5", "Figure 5", "compute (IPC) and memory (DRAM read BW) utilization, 1/4/16 threads", o,
			cols("benchmark", "threads", "compute util", "memory util", "IPC")...)
		for _, res := range results {
			// Peak read bandwidth reference: the 700 MB/s theoretical MRAM->WRAM
			// link (the paper normalizes against the ~600 MB/s measured on
			// hardware; we use the modeled ceiling so the utilization is bounded
			// by 100%).
			peakBytesPerCycle := float64(res.Config.LinkBytesPerCycle)
			t.AddRow(
				artifact.Str(res.Benchmark), artifact.Int(res.Tasklets),
				artifact.Pct(res.Stats.ComputeUtilization(1)),
				artifact.Pct(res.Stats.MemoryReadBandwidthUtilization(peakBytesPerCycle)),
				artifact.Num(res.Stats.IPC()),
			)
		}
		return t, nil
	}
}

// fig6 reports the issue-slot breakdown.
func fig6(o Options) ([]engine.Point, projection) {
	return grid(o, sweepThreads...), func(results []*prim.Result) (*Table, error) {
		t := newTable("fig6", "Figure 6", "issue-slot breakdown: issuable vs idle(memory/revolver/RF)", o,
			cols("benchmark", "threads", "issuable", "idle(mem)", "idle(revolver)", "idle(RF)")...)
		for _, res := range results {
			issued, mem, rev, rf := res.Stats.Breakdown()
			t.AddRow(
				artifact.Str(res.Benchmark), artifact.Int(res.Tasklets),
				artifact.Pct(issued), artifact.Pct(mem), artifact.Pct(rev), artifact.Pct(rf),
			)
		}
		return t, nil
	}
}

// fig7 reports the issuable-thread histogram and average at 16 threads.
func fig7(o Options) ([]engine.Point, projection) {
	return grid(o, 16), func(results []*prim.Result) (*Table, error) {
		t := newTable("fig7", "Figure 7", "issuable threads per cycle, 16 threads", o,
			cols("benchmark", "0", "1~4", "5~8", "9~12", "13~16", "17~24", "avg")...)
		for _, res := range results {
			row := []artifact.Value{artifact.Str(res.Benchmark)}
			var total uint64
			for _, c := range res.Stats.TLPHist {
				total += c
			}
			for _, c := range res.Stats.TLPHist {
				row = append(row, artifact.Pct(float64(c)/float64(max(total, 1))))
			}
			row = append(row, artifact.Num(res.Stats.AvgIssuable()))
			t.AddRow(row...)
		}
		return t, nil
	}
}

// fig8 samples the TLP timeline for the paper's three exemplars.
func fig8(o Options) ([]engine.Point, projection) {
	var pts []engine.Point
	for _, name := range o.names("BS", "GEMV", "SCAN-SSA") {
		cfg := baseCfg(16)
		cfg.TimelineWindow = 2000
		pts = append(pts, pt(name, cfg, 1, o.Scale))
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		colList := []artifact.Column{{Name: "benchmark"}}
		for i := 0; i < 16; i++ {
			colList = append(colList, col(fmt.Sprintf("t%d", i), "threads"))
		}
		t := newTable("fig8", "Figure 8", "issuable threads over time (normalized run, 16 samples)", o, colList...)
		for _, res := range results {
			var series []float32
			for _, d := range res.PerDPU {
				if len(d.Timeline) > 0 {
					series = d.Timeline
					break
				}
			}
			row := []artifact.Value{artifact.Str(res.Benchmark)}
			for i := 0; i < 16; i++ {
				if len(series) == 0 {
					row = append(row, artifact.Str("-"))
					continue
				}
				idx := i * len(series) / 16
				row = append(row, artifact.Num(float64(series[idx])))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
}

// fig9 reports the instruction mix.
func fig9(o Options) ([]engine.Point, projection) {
	return grid(o, 16), func(results []*prim.Result) (*Table, error) {
		t := newTable("fig9", "Figure 9", "instruction mix (single DPU, 16 threads)", o,
			cols("benchmark", "arith", "arith+branch", "mul/div", "ld/st", "DMA", "sync", "etc")...)
		for _, res := range results {
			mix := res.Stats.MixFractions()
			row := []artifact.Value{artifact.Str(res.Benchmark)}
			for c := 0; c < isa.NumClasses; c++ {
				row = append(row, artifact.Pct(mix[c]))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
}

var fig10DPUs = []int{1, 16, 64}

// fig10 reports multi-DPU strong scaling.
func fig10(o Options) ([]engine.Point, projection) {
	var pts []engine.Point
	for _, name := range o.names() {
		for _, dpus := range fig10DPUs {
			pts = append(pts, pt(name, baseCfg(16), dpus, o.Scale))
		}
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		t := newTable("fig10", "Figure 10", "strong scaling over 1/16/64 DPUs: phase times (ms) and speedup", o,
			artifact.Column{Name: "benchmark"}, artifact.Column{Name: "DPUs"},
			col("kernel", "ms"), col("CPU-to-DPU", "ms"), col("DPU-to-CPU", "ms"),
			col("DPU-to-DPU", "ms"), col("total", "ms"), artifact.Column{Name: "speedup"})
		ms := func(s float64) artifact.Value { return artifact.Num(s * 1e3) }
		for i, res := range results {
			total := res.Report.Total()
			base := results[i-i%len(fig10DPUs)].Report.Total()
			t.AddRow(
				artifact.Str(res.Benchmark), artifact.Int(res.DPUs),
				ms(res.Report.KernelSeconds),
				ms(res.Report.TransferSeconds[0]),
				ms(res.Report.TransferSeconds[1]),
				ms(res.Report.TransferSeconds[2]),
				ms(total),
				artifact.Num(base/total),
			)
		}
		return t, nil
	}
}

// ---- case studies --------------------------------------------------------

// fig11 runs the SIMT case study on GEMV.
func fig11(o Options) ([]engine.Point, projection) {
	type design struct {
		name   string
		mutate func(*config.Config)
	}
	designs := []design{
		{"Base (scalar, 16 threads)", func(c *config.Config) {}},
		{"SIMT", func(c *config.Config) {
			c.Mode = config.ModeSIMT
			c.NumTasklets = 16 * 16
		}},
		{"SIMT+AC", func(c *config.Config) {
			c.Mode = config.ModeSIMT
			c.NumTasklets = 16 * 16
			c.SIMTCoalesce = true
		}},
		{"SIMT+AC+4x", func(c *config.Config) {
			c.Mode = config.ModeSIMT
			c.NumTasklets = 16 * 16
			c.SIMTCoalesce = true
			c.DRAMFreqMHz *= 4
		}},
		{"SIMT+AC+16x", func(c *config.Config) {
			c.Mode = config.ModeSIMT
			c.NumTasklets = 16 * 16
			c.SIMTCoalesce = true
			c.DRAMFreqMHz *= 16
		}},
	}
	var pts []engine.Point
	for _, d := range designs {
		cfg := baseCfg(16)
		d.mutate(&cfg)
		pts = append(pts, pt("GEMV", cfg, 1, o.Scale))
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		t := newTable("fig11", "Figure 11", "SIMT vector execution on GEMV (max IPC 16)", o,
			cols("design", "IPC", "issuable", "idle(mem)", "idle(revolver)", "speedup")...)
		for i, res := range results {
			issued, mem, rev, _ := res.Stats.Breakdown()
			t.AddRow(
				artifact.Str(designs[i].name), artifact.Num(res.Stats.IPC()),
				artifact.Pct(issued), artifact.Pct(mem), artifact.Pct(rev),
				artifact.Num(seconds(results[0])/seconds(res)),
			)
		}
		return t, nil
	}
}

// ilpVariants is the additive Fig 12 feature ladder.
var ilpVariants = []string{"", "D", "DR", "DRS", "DRSF"}

func ilpLabel(v string) string {
	label := "Base"
	for _, f := range v {
		label += "+" + string(f)
	}
	return label
}

// fig12 runs the ILP ablation.
func fig12(o Options) ([]engine.Point, projection) {
	var pts []engine.Point
	for _, name := range o.names() {
		for _, v := range ilpVariants {
			pts = append(pts, pt(name, baseCfg(16).WithILP(v), 1, o.Scale))
		}
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		t := newTable("fig12", "Figure 12", "ILP ablation at 16 threads: D=forwarding R=unified RF S=2-way F=700MHz", o,
			cols("benchmark", "design", "issuable", "idle(mem)", "idle(revolver)", "idle(RF)", "speedup")...)
		for i, res := range results {
			base := seconds(results[i-i%len(ilpVariants)])
			issued, mem, rev, rf := res.Stats.Breakdown()
			t.AddRow(
				artifact.Str(res.Benchmark), artifact.Str(ilpLabel(ilpVariants[i%len(ilpVariants)])),
				artifact.Pct(issued), artifact.Pct(mem), artifact.Pct(rev), artifact.Pct(rf),
				artifact.Num(base/seconds(res)),
			)
		}
		return t, nil
	}
}

var fig13LinkScales = []int{1, 2, 4}

// fig13 scales the MRAM-to-WRAM link bandwidth.
func fig13(o Options) ([]engine.Point, projection) {
	ilps := []string{"", "DRSF"}
	var pts []engine.Point
	for _, name := range o.names() {
		for _, ilp := range ilps {
			for _, scale := range fig13LinkScales {
				cfg := baseCfg(16).WithILP(ilp)
				cfg.LinkBytesPerCycle *= scale
				pts = append(pts, pt(name, cfg, 1, o.Scale))
			}
		}
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		t := newTable("fig13", "Figure 13", "speedup from scaling the MRAM-to-WRAM link x1/x2/x4", o,
			cols("benchmark", "design", "x1", "x2", "x4")...)
		n := len(fig13LinkScales)
		for i := 0; i < len(results); i += n {
			row := []artifact.Value{
				artifact.Str(results[i].Benchmark),
				artifact.Str(ilpLabel(ilps[(i/n)%len(ilps)])),
			}
			for _, res := range results[i : i+n] {
				row = append(row, artifact.Num(seconds(results[i])/seconds(res)))
			}
			t.AddRow(row...)
		}
		return t, nil
	}
}

// mmuStudy quantifies address-translation overhead (case study 3).
func mmuStudy(o Options) ([]engine.Point, projection) {
	var pts []engine.Point
	for _, name := range o.names() {
		cfg := baseCfg(16)
		cfg.MMU.Enable = true
		cfg.MMU.Prefault = false // outputs are demand-faulted on first touch
		pts = append(pts, pt(name, baseCfg(16), 1, o.Scale), pt(name, cfg, 1, o.Scale))
	}
	return pts, func(results []*prim.Result) (*Table, error) {
		t := newTable("mmu", "Figure 14 (case study 3)", "MMU overhead: 16-entry TLB, 4KB pages, demand paging", o,
			cols("benchmark", "slowdown", "TLB hit rate", "walks", "faults")...)
		var worst, sum float64
		n := 0
		for i := 0; i < len(results); i += 2 {
			base, res := results[i], results[i+1]
			over := float64(res.Stats.Cycles)/float64(base.Stats.Cycles) - 1
			hits := float64(res.Stats.MMU.TLBHits)
			hitRate := hits / max(hits+float64(res.Stats.MMU.TLBMisses), 1)
			t.AddRow(
				artifact.Str(res.Benchmark), artifact.Pct(over), artifact.Pct(hitRate),
				artifact.Int(res.Stats.MMU.TableWalks), artifact.Int(res.Stats.MMU.PageFaults),
			)
			sum += over
			worst = max(worst, over)
			n++
		}
		t.AddRow(artifact.Str("average"), artifact.Pct(sum/float64(max(n, 1))), artifact.Str(""), artifact.Str(""), artifact.Str(""))
		t.AddRow(artifact.Str("max"), artifact.Pct(worst), artifact.Str(""), artifact.Str(""), artifact.Str(""))
		return t, nil
	}
}

// fig15 compares the cache-centric and scratchpad-centric designs.
func fig15(o Options) ([]engine.Point, projection) {
	return pairs(o, o.names(), 1, sweepThreads), func(results []*prim.Result) (*Table, error) {
		t := newTable("fig15", "Figure 15", "cache-centric speedup over scratchpad-centric (>1 favours caches)", o,
			artifact.Column{Name: "benchmark"}, artifact.Column{Name: "threads"},
			col("scratchpad", "ms"), col("cache", "ms"), artifact.Column{Name: "cache speedup"})
		for i := 0; i < len(results); i += 2 {
			spad := results[i]
			sSec, cSec := seconds(spad), seconds(results[i+1])
			t.AddRow(
				artifact.Str(spad.Benchmark), artifact.Int(spad.Tasklets),
				artifact.Num(sSec*1e3), artifact.Num(cSec*1e3), artifact.Num(sSec/cSec),
			)
		}
		return t, nil
	}
}

// fig16 compares DRAM bytes read and runtime for BS and UNI.
func fig16(o Options) ([]engine.Point, projection) {
	return pairs(o, o.names("BS", "UNI"), 1, []int{1, 2, 4, 8, 16}), func(results []*prim.Result) (*Table, error) {
		t := newTable("fig16", "Figure 16", "DRAM bytes read and runtime vs threads: scratchpad vs cache", o,
			artifact.Column{Name: "benchmark"}, artifact.Column{Name: "threads"},
			col("bytes (spad)", "B"), col("bytes (cache)", "B"),
			artifact.Column{Name: "byte ratio"}, artifact.Column{Name: "time ratio (spad/cache)"})
		for i := 0; i < len(results); i += 2 {
			spad, cached := results[i], results[i+1]
			sb := float64(spad.Stats.DRAM.BytesRead)
			cb := float64(cached.Stats.DRAM.BytesRead)
			t.AddRow(
				artifact.Str(spad.Benchmark), artifact.Int(spad.Tasklets),
				artifact.Raw(fmt.Sprintf("%.0fK", sb/1024), sb),
				artifact.Raw(fmt.Sprintf("%.0fK", cb/1024), cb),
				artifact.Num(sb/max(cb, 1)),
				artifact.Num(float64(spad.Stats.Cycles)/float64(max(cached.Stats.Cycles, 1))),
			)
		}
		return t, nil
	}
}

// ---- tables and validation ----------------------------------------------

// table1 prints the default configuration (paper Table I). It is
// scale-independent, so its table carries no Scale stamp.
func table1([]*prim.Result) (*Table, error) {
	cfg := config.Default()
	params := [...][2]string{
		{"Operating frequency", fmt.Sprintf("%d MHz", cfg.FreqMHz)},
		{"Number of pipeline stages", fmt.Sprint(cfg.PipelineStages)},
		{"Revolver scheduling cycles", fmt.Sprint(cfg.RevolverCycles)},
		{"WRAM / IRAM size", fmt.Sprintf("%d KB / %d KB", cfg.WRAMBytes>>10, cfg.IRAMBytes>>10)},
		{"WRAM access width", fmt.Sprintf("%d B per clock", cfg.WRAMBytesPerCycle)},
		{"Atomic memory size", fmt.Sprintf("%d bits", cfg.AtomicLocks)},
		{"MRAM size", fmt.Sprintf("%d MB", cfg.MRAMBytes>>20)},
		{"DDR specification", fmt.Sprintf("DDR4-2400 (%d MHz command clock)", cfg.DRAMFreqMHz)},
		{"Memory scheduling policy", "FR-FCFS"},
		{"Row buffer size", fmt.Sprintf("%d B", cfg.RowBytes)},
		{"tRCD, tRAS, tRP, tCL, tBL", fmt.Sprintf("%d, %d, %d, %d, %d cycles",
			cfg.TRCD, cfg.TRAS, cfg.TRP, cfg.TCL, cfg.TBL)},
		{"MRAM-WRAM link", fmt.Sprintf("%d B per DPU cycle (%d MB/s)",
			cfg.LinkBytesPerCycle, cfg.LinkBytesPerCycle*cfg.FreqMHz)},
		{"CPU->DPU bandwidth", fmt.Sprintf("%.3f GB/s per DPU", cfg.CPUToDPUBytesPerSec/1e9)},
		{"CPU<-DPU bandwidth", fmt.Sprintf("%.3f GB/s per DPU", cfg.DPUToCPUBytesPerSec/1e9)},
		{"General-purpose registers", fmt.Sprint(int(isa.NumGPR))},
		{"Maximum number of threads", fmt.Sprint(cfg.MaxTasklets)},
		{"Stack size (per thread)", fmt.Sprintf("%d KB", cfg.StackBytes>>10)},
		{"Heap size", fmt.Sprintf("%d KB", cfg.HeapBytes>>10)},
	}
	t := &Table{
		Key: "table1", ID: "Table I", Title: "uPIMulator default configuration",
		Columns: cols("parameter", "value"), Rows: make([][]artifact.Value, 0, len(params)),
	}
	for _, p := range params {
		t.AddStrings(p[0], p[1])
	}
	return t, nil
}

// table2 prints the benchmark datasets for a scale.
func table2(o Options) ([]engine.Point, projection) {
	return nil, func([]*prim.Result) (*Table, error) {
		bs := prim.Benchmarks()
		t := newTable("table2", "Table II", fmt.Sprintf("PrIM datasets at scale %q", o.Scale), o,
			cols("benchmark", "description", "parameters")...)
		t.Rows = make([][]artifact.Value, 0, len(bs))
		for _, b := range bs {
			p, err := b.Params(o.Scale)
			if err != nil {
				return nil, err
			}
			t.AddStrings(b.Name, b.About, fmt.Sprintf("%+v", p))
		}
		return t, nil
	}
}

// validation runs the whole suite on four DPUs in both memory models — each
// run verified against its host golden model, this repo's stand-in for the
// paper's validation against real UPMEM hardware.
func validation(o Options) ([]engine.Point, projection) {
	return pairs(o, o.names(), 4, []int{16}), func(results []*prim.Result) (*Table, error) {
		t := newTable("validation", "Validation", "functional cross-validation vs host golden models", o,
			cols("benchmark", "mode", "threads", "DPUs", "result", "instructions")...)
		for _, res := range results {
			t.AddRow(
				artifact.Str(res.Benchmark), artifact.Str(res.Mode.String()),
				artifact.Int(res.Tasklets), artifact.Int(res.DPUs), artifact.Str("PASS"), artifact.Int(res.Stats.Instructions),
			)
		}
		return t, nil
	}
}

// table3 reproduces the simulator-comparison table with this repo's row. It
// is scale-independent, so its table carries no Scale stamp.
func table3([]*prim.Result) (*Table, error) {
	t := &Table{
		Key: "table3", ID: "Table III", Title: "PIM simulator comparison (paper's survey + this reproduction)",
		Columns: cols("simulator", "ISA", "frontend", "linker customization", "validated vs", "multithreaded"),
	}
	t.AddStrings("PIMSim", "x86/ARM/SPARC", "trace", "no", "-", "no")
	t.AddStrings("Ramulator-PIM", "x86", "trace+execution", "no", "-", "yes")
	t.AddStrings("MultiPIM", "x86", "trace+execution", "no", "-", "yes")
	t.AddStrings("MPU-Sim", "PTX", "execution", "no", "-", "no")
	t.AddStrings("uPIMulator (paper)", "UPMEM", "execution", "yes", "real UPMEM-PIM", "no")
	t.AddStrings("uPIMulator-Go (this repo)", "UPMEM-style", "execution", "yes", "host golden models", "yes (per-DPU goroutines)")
	return t, nil
}
