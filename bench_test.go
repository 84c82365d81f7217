// Benchmarks regenerating every table and figure of the paper's evaluation.
// Each testing.B below corresponds to one artifact (see docs/ARCHITECTURE.md
// for the figure-to-code map); headline numbers are attached as custom
// metrics so `go test -bench=. -benchmem` doubles as a results report.
// Benchmarks run at tiny scale to stay CI-sized; `cmd/figures -scale
// small|paper -out DIR` exports the full artifact report.
package upim_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"upim"
)

func runExp(b *testing.B, id string, names ...string) *upim.ResultTable {
	b.Helper()
	opts := upim.ExperimentOptions{Scale: upim.ScaleTiny, Benchmarks: names}
	var tab *upim.ResultTable
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = upim.RunExperimentContext(context.Background(), id, opts)
		if err != nil {
			b.Fatal(err)
		}
	}
	return tab
}

// metric reports a cell's numeric value, in percentage points for cells
// displayed as percentages.
func metric(cell upim.ArtifactValue) float64 {
	if strings.HasSuffix(cell.Text, "%") {
		return cell.Num * 100
	}
	return cell.Num
}

// BenchmarkTable1_Config regenerates Table I (simulator configuration).
func BenchmarkTable1_Config(b *testing.B) { runExp(b, "table1") }

// BenchmarkTable2_Datasets regenerates Table II (PrIM datasets).
func BenchmarkTable2_Datasets(b *testing.B) { runExp(b, "table2") }

// BenchmarkValidation runs the Section III-C functional cross-validation:
// the whole suite, both memory models, multi-DPU, against golden models.
func BenchmarkValidation(b *testing.B) {
	tab := runExp(b, "validation")
	b.ReportMetric(float64(len(tab.Rows)), "configs-verified")
}

// BenchmarkFig5_Utilization: compute vs memory-bandwidth utilization.
func BenchmarkFig5_Utilization(b *testing.B) {
	tab := runExp(b, "fig5", "VA", "GEMV", "BS", "SpMV")
	for _, row := range tab.Rows {
		if row[0].Text == "BS" && row[1].Text == "16" {
			b.ReportMetric(metric(row[3]), "BS-mem-util-%")
		}
		if row[0].Text == "GEMV" && row[1].Text == "16" {
			b.ReportMetric(metric(row[2]), "GEMV-compute-util-%")
		}
	}
}

// BenchmarkFig6_LatencyBreakdown: issue-slot breakdown.
func BenchmarkFig6_LatencyBreakdown(b *testing.B) {
	tab := runExp(b, "fig6", "BS", "GEMV", "HST-L")
	for _, row := range tab.Rows {
		if row[0].Text == "BS" && row[1].Text == "16" {
			b.ReportMetric(metric(row[3]), "BS-idle-mem-%")
		}
	}
}

// BenchmarkFig7_TLPHistogram: issuable-thread distribution.
func BenchmarkFig7_TLPHistogram(b *testing.B) {
	tab := runExp(b, "fig7", "BS", "GEMV")
	for _, row := range tab.Rows {
		b.ReportMetric(metric(row[len(row)-1]), row[0].Text+"-avg-issuable")
	}
}

// BenchmarkFig8_TLPTimeline: TLP over time for the paper's three exemplars.
func BenchmarkFig8_TLPTimeline(b *testing.B) { runExp(b, "fig8") }

// BenchmarkFig9_InstructionMix: per-class instruction fractions.
func BenchmarkFig9_InstructionMix(b *testing.B) {
	tab := runExp(b, "fig9", "BFS", "HST-L", "GEMV")
	for _, row := range tab.Rows {
		if row[0].Text == "HST-L" {
			b.ReportMetric(metric(row[6]), "HSTL-sync-%")
		}
		if row[0].Text == "BFS" {
			b.ReportMetric(metric(row[5]), "BFS-dma-%")
		}
	}
}

// BenchmarkFig10_StrongScaling: multi-DPU latency breakdown and speedup.
func BenchmarkFig10_StrongScaling(b *testing.B) {
	tab := runExp(b, "fig10", "VA", "BS")
	for _, row := range tab.Rows {
		if row[1].Text == "64" {
			b.ReportMetric(metric(row[7]), row[0].Text+"-speedup-64dpu")
		}
	}
}

// BenchmarkFig11_SIMT: the SIMT case study on GEMV.
func BenchmarkFig11_SIMT(b *testing.B) {
	tab := runExp(b, "fig11")
	for _, row := range tab.Rows {
		switch row[0].Text {
		case "SIMT":
			b.ReportMetric(metric(row[5]), "SIMT-speedup")
		case "SIMT+AC":
			b.ReportMetric(metric(row[5]), "SIMT+AC-speedup")
		case "SIMT+AC+16x":
			b.ReportMetric(metric(row[1]), "SIMT+AC+16x-IPC")
		}
	}
}

// BenchmarkFig12_ILPAblation: the D/R/S/F ladder.
func BenchmarkFig12_ILPAblation(b *testing.B) {
	tab := runExp(b, "fig12", "GEMV", "TS", "BS")
	for _, row := range tab.Rows {
		if row[1].Text == "Base+D+R+S+F" {
			b.ReportMetric(metric(row[6]), row[0].Text+"-DRSF-speedup")
		}
	}
}

// BenchmarkFig13_BandwidthScaling: MRAM-to-WRAM link x1/x2/x4.
func BenchmarkFig13_BandwidthScaling(b *testing.B) {
	tab := runExp(b, "fig13", "BS", "TS")
	for _, row := range tab.Rows {
		if row[0].Text == "BS" && row[1].Text == "Base" {
			b.ReportMetric(metric(row[4]), "BS-base-x4-speedup")
		}
	}
}

// BenchmarkCaseStudyMMU: address-translation overhead.
func BenchmarkCaseStudyMMU(b *testing.B) {
	tab := runExp(b, "mmu", "VA", "BS", "SpMV", "GEMV")
	for _, row := range tab.Rows {
		if row[0].Text == "average" {
			b.ReportMetric(metric(row[1]), "avg-slowdown-%")
		}
		if row[0].Text == "max" {
			b.ReportMetric(metric(row[1]), "max-slowdown-%")
		}
	}
}

// BenchmarkFig15_CacheVsScratchpad: the case-study 4 comparison.
func BenchmarkFig15_CacheVsScratchpad(b *testing.B) {
	tab := runExp(b, "fig15", "BS", "UNI", "VA")
	for _, row := range tab.Rows {
		if row[1].Text == "16" {
			b.ReportMetric(metric(row[4]), row[0].Text+"-cache-speedup")
		}
	}
}

// BenchmarkFig16_BytesRead: DRAM traffic, scratchpad vs cache, BS and UNI.
func BenchmarkFig16_BytesRead(b *testing.B) {
	tab := runExp(b, "fig16")
	for _, row := range tab.Rows {
		if row[1].Text == "16" {
			b.ReportMetric(metric(row[4]), row[0].Text+"-byte-ratio")
		}
	}
}

// BenchmarkTable3_Comparison regenerates the simulator-comparison table.
func BenchmarkTable3_Comparison(b *testing.B) { runExp(b, "table3") }

// BenchmarkEstimateThroughput measures tier-A analytical estimation speed:
// how fast the calibrated estimator triages design points, in points per
// second. One iteration estimates every feasible point of the 5-axis
// acceptance space (the same shape `pathfind -tier2` triages before
// simulating the Pareto band), so the metric is directly the tier-A side of
// the two-tier split: points/s here vs KIPS below.
func BenchmarkEstimateThroughput(b *testing.B) {
	space := upim.NewDesignSpace([]string{"VA"},
		upim.AxisTasklets(1, 4, 16),
		upim.AxisFrequencyMHz(350, 700),
		upim.AxisLinkScale(1, 2, 4),
		upim.AxisILP("base", "D", "DRSF"),
		upim.AxisModes(upim.ModeScratchpad, upim.ModeCache),
	)
	space.Scale = upim.ScaleTiny
	points, err := space.Points()
	if err != nil {
		b.Fatal(err)
	}
	est, err := upim.NewEstimator(nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	start := time.Now()
	estimated := 0
	for i := 0; i < b.N; i++ {
		for _, p := range points {
			if _, err := upim.EstimateDesignPoint(est, p); err != nil {
				b.Fatal(err)
			}
			estimated++
		}
	}
	elapsed := time.Since(start).Seconds()
	b.ReportMetric(float64(len(points)), "points")
	if elapsed > 0 {
		b.ReportMetric(float64(estimated)/elapsed, "est-points/s")
	}
}

// BenchmarkServeThroughput measures the serving stack end to end: profile
// two tenants' kernels cycle-exactly, then replay a 48-request Poisson
// stream through the weighted-fair scheduler in virtual time. The req/s
// metric is wall-clock serving throughput (how fast the evaluation runs);
// the simulated rate lives in the artifact tables. Profiling runs
// single-worker so allocs/op is deterministic and gate-able.
func BenchmarkServeThroughput(b *testing.B) {
	tenants := []upim.ServeTenant{
		{Name: "latency", Mix: []string{"VA"}, Weight: 3, SLOClass: "latency"},
		{Name: "batch", Mix: []string{"BS"}, Weight: 1, SLOClass: "batch"},
	}
	policy, err := upim.NewSchedulingPolicy("wfq", tenants)
	if err != nil {
		b.Fatal(err)
	}
	opts := upim.ServeOptions{
		Tenants:     tenants,
		Policy:      policy,
		Groups:      2,
		MaxBatch:    4,
		Requests:    24,
		Load:        0.8,
		Seed:        1,
		Scale:       upim.ScaleTiny,
		Parallelism: 1,
	}
	ctx := context.Background()
	served := 0
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := upim.Serve(ctx, opts)
		if err != nil {
			b.Fatal(err)
		}
		served += len(res.Records)
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(served)/elapsed, "req/s")
	}
}

// BenchmarkServeLoadSweep measures the QoS-curve sweep end to end: profile
// four kernels once, then replay 3 policies x 4 loads (under- to
// over-load) of a two-tenant, 8000-request Poisson stream. The req/s metric
// is wall-clock replay throughput over all twelve cells. Two workers, as in
// the repo benchmark's serve_sweep; allocs/op moves by a handful between
// runs (worker scheduling), far inside the gate's tolerance.
func BenchmarkServeLoadSweep(b *testing.B) {
	opts := upim.ServeOptions{
		Tenants: []upim.ServeTenant{
			{Name: "latency", Mix: []string{"VA", "GEMV"}, Weight: 3, SLOClass: "latency"},
			{Name: "batch", Mix: []string{"BS", "RED"}, Weight: 1, SLOClass: "batch"},
		},
		Groups:      2,
		MaxBatch:    4,
		Requests:    4000,
		Seed:        1,
		Scale:       upim.ScaleTiny,
		Parallelism: 2,
	}
	policies := []string{"fifo", "wfq", "slo"}
	loads := []float64{0.5, 0.8, 0.95, 1.1}
	ctx := context.Background()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if _, err := upim.ServeLoadSweep(ctx, opts, policies, loads); err != nil {
			b.Fatal(err)
		}
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		served := b.N * len(policies) * len(loads) * len(opts.Tenants) * opts.Requests
		b.ReportMetric(float64(served)/elapsed, "req/s")
	}
}

// resumeBench populates a store with a 72-point exploration (two benchmarks
// over four axes) and returns that exploration with what a `pathfind -pareto
// -goals time,energy,cost -energy` run renders from one.
func resumeBench(b *testing.B) (space *upim.DesignSpace, storeDir string, x *upim.Exploration, tables func(*upim.Exploration) []*upim.ResultTable) {
	b.Helper()
	space = upim.NewDesignSpace([]string{"VA", "BS"},
		upim.AxisTasklets(1, 4, 16),
		upim.AxisFrequencyMHz(350, 700),
		upim.AxisLinkScale(1, 4),
		upim.AxisILP("base", "DR", "DRSF"),
	)
	space.Scale = upim.ScaleTiny
	goals, err := upim.ParseGoals("time,energy,cost", nil)
	if err != nil {
		b.Fatal(err)
	}
	storeDir = b.TempDir()
	store, err := upim.OpenResultStore(storeDir)
	if err != nil {
		b.Fatal(err)
	}
	x, err = upim.Explore(context.Background(), space, upim.ExploreOptions{Store: store})
	if err != nil {
		b.Fatal(err)
	}
	if x.Simulated != 72 {
		b.Fatalf("populating run simulated %d points, want 72", x.Simulated)
	}
	return space, storeDir, x, func(x *upim.Exploration) []*upim.ResultTable {
		return []*upim.ResultTable{x.SummaryTable(), x.ParetoTable(goals...), x.BestTable(3), x.EnergyTable(nil)}
	}
}

// BenchmarkPathfindResume measures the loop a pathfinding user sits in: a
// rerun over a populated store that simulates nothing. One iteration is what
// the CLI does after enumeration — reopen the store, Explore (72 hits), the
// four artifact tables, WriteReport — at two workers, as in the repo
// benchmark's pathfind_resume. points/s is stored points served end to end.
func BenchmarkPathfindResume(b *testing.B) {
	space, storeDir, _, tables := resumeBench(b)
	report := b.TempDir()
	ctx := context.Background()
	b.ResetTimer()
	start := time.Now()
	served := 0
	for i := 0; i < b.N; i++ {
		store, err := upim.OpenResultStore(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		x, err := upim.Explore(ctx, space, upim.ExploreOptions{Parallelism: 2, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		if x.Simulated != 0 {
			b.Fatalf("resumed pass simulated %d points", x.Simulated)
		}
		if err := upim.WriteReport(report, tables(x)); err != nil {
			b.Fatal(err)
		}
		served += x.Hits
	}
	if elapsed := time.Since(start).Seconds(); elapsed > 0 {
		b.ReportMetric(float64(served)/elapsed, "points/s")
	}
}

// BenchmarkWriteReport measures report rendering alone: the four tables of
// the 72-point exploration above to CSV, JSON, Markdown and index.md.
func BenchmarkWriteReport(b *testing.B) {
	_, _, x, tables := resumeBench(b)
	tabs := tables(x)
	report := b.TempDir()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := upim.WriteReport(report, tabs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulationRate measures the simulator's own speed in
// kilo-instructions per second (the paper reports ~3 KIPS for uPIMulator;
// Table III's last row). It runs through a long-lived Runner — the steady
// state of a sweep worker: the kernel build is cached and the DPU shells are
// recycled through the engine's arena pool, so the loop measures the cycle
// core, not per-run construction.
func BenchmarkSimulationRate(b *testing.B) {
	r, err := upim.NewRunner(upim.WithTasklets(16))
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	// One warmup run populates the build cache, the input cache, and the
	// runner's DPU-shell arena, so the loop measures the steady state the
	// sweep path actually operates in.
	if _, err := r.Run(ctx, "VA"); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var instrs uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		res, err := r.Run(ctx, "VA")
		if err != nil {
			b.Fatal(err)
		}
		instrs += res.Stats.Instructions
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(instrs)/elapsed/1e3, "KIPS")
	}
}

// BenchmarkHBMPIMRate measures the bank-level MAC backend through the
// public exploration API: one GEMV+VA sweep across site counts on the
// hbm-pim machine per iteration. KIPS counts modeled MAC operations, making
// the rate directly comparable to BenchmarkSimulationRate's cycle-exact
// DPU number; the benchmark also gates allocs/op, since the analytical
// backend is supposed to stay cheap next to the cycle core.
func BenchmarkHBMPIMRate(b *testing.B) {
	space := upim.NewDesignSpace([]string{"GEMV", "VA"},
		upim.AxisArchs("hbm-pim"), upim.AxisDPUs(1, 2, 4))
	space.Scale = upim.ScaleTiny
	ctx := context.Background()
	b.ResetTimer()
	var instrs uint64
	start := time.Now()
	for i := 0; i < b.N; i++ {
		x, err := upim.Explore(ctx, space, upim.ExploreOptions{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		for _, o := range x.Outcomes {
			if o.Err != nil {
				b.Fatal(o.Err)
			}
			instrs += o.Result.Stats.Instructions
		}
	}
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		b.ReportMetric(float64(instrs)/elapsed/1e3, "KIPS")
	}
}
