//go:build !race

package upim_test

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"upim"
)

// TestWarmRunHostAllocs is the repo's allocation contract: what one warm
// call of each public entry point may allocate on the Go heap. Allocation
// counts are the one measurement that repeats across machines and sessions
// (timings are benchmark/run.sh's job), so the ceilings are the counts
// themselves: each row is measured with testing.AllocsPerRun — whose warm-up
// call fills the build cache, the input memo, the process's DPU-shell free
// list (internal/host) and the buffer pools — and committed as measured. A
// row at parallelism 1 fails when its ceiling is lowered by one. The two
// rows on two workers are not exact, because the workers reorder pool
// traffic (ServeLoadSweep reads 714-731 on a 2-vCPU Xeon; the resumed
// exploration reads 2662-2664 there since its keys stopped allocating), and
// carry 10 % over a typical reading. A change that allocates more on
// purpose raises its row in the same diff. Not under the race detector,
// where sync.Pool drops items at random.
func TestWarmRunHostAllocs(t *testing.T) {
	ctx := context.Background()
	newRunner := func(opts ...upim.RunnerOption) *upim.Runner {
		r, err := upim.NewRunner(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	run := func(r *upim.Runner, name string) func() error {
		return func() error {
			_, err := r.Run(ctx, name)
			return err
		}
	}
	experiment := func(id string) func() error {
		return func() error {
			_, err := upim.RunExperimentContext(ctx, id, upim.ExperimentOptions{Scale: upim.ScaleTiny})
			return err
		}
	}
	sixteen, tiny := newRunner(upim.WithTasklets(16)), newRunner(upim.WithScale(upim.ScaleTiny))

	// GEMV and VA across 1, 2 and 4 sites of the bank-level MAC backend:
	// the analytical machine has to stay cheap next to the cycle core.
	hbm := upim.NewDesignSpace([]string{"GEMV", "VA"}, upim.AxisArchs("hbm-pim"), upim.AxisDPUs(1, 2, 4))
	hbm.Scale = upim.ScaleTiny

	// Two tenants, 24 requests each, through the weighted-fair scheduler:
	// two kernels profiled cycle-exactly, then a virtual-time replay.
	tenants := []upim.ServeTenant{
		{Name: "latency", Mix: []string{"VA"}, Weight: 3, SLOClass: "latency"},
		{Name: "batch", Mix: []string{"BS"}, Weight: 1, SLOClass: "batch"},
	}
	wfq, err := upim.NewSchedulingPolicy("wfq", tenants)
	if err != nil {
		t.Fatal(err)
	}
	serve := upim.ServeOptions{Tenants: tenants, Policy: wfq, Groups: 2, MaxBatch: 4,
		Requests: 24, Load: 0.8, Seed: 1, Scale: upim.ScaleTiny, Parallelism: 1}
	// The same run through the earliest-deadline scheduler.
	slo, err := upim.NewSchedulingPolicy("slo", tenants)
	if err != nil {
		t.Fatal(err)
	}
	serveSLO := serve
	serveSLO.Policy = slo

	// A 72-point exploration in a populated store and the four tables a
	// `pathfind -pareto -goals time,energy,cost -energy` run renders from it.
	space := upim.NewDesignSpace([]string{"VA", "BS"},
		upim.AxisTasklets(1, 4, 16), upim.AxisFrequencyMHz(350, 700),
		upim.AxisLinkScale(1, 4), upim.AxisILP("base", "DR", "DRSF"))
	space.Scale = upim.ScaleTiny
	goals, err := upim.ParseGoals("time,energy,cost", nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := func(x *upim.Exploration) []*upim.ResultTable {
		return []*upim.ResultTable{x.SummaryTable(), x.ParetoTable(goals...), x.BestTable(3), x.EnergyTable(nil)}
	}
	storeDir, report := t.TempDir(), t.TempDir()
	store, err := upim.OpenResultStore(storeDir)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := upim.Explore(ctx, space, upim.ExploreOptions{Store: store})
	if err != nil {
		t.Fatal(err)
	}
	if cold.Simulated != 72 {
		t.Fatalf("populating run simulated %d points, want 72", cold.Simulated)
	}
	coldTables := tables(cold)

	for _, row := range []struct {
		name    string
		ceiling float64
		call    func() error
	}{
		{"Run/VA/16-tasklets", 15, run(sixteen, "VA")},
		// A new Runner's first run: its engine and build cache are new, its
		// DPU shells the process's, recycled from the calls before (168 when
		// each engine kept its own).
		{"NewRunner+Run/VA", 63, func() error {
			r, err := upim.NewRunner(upim.WithScale(upim.ScaleTiny))
			if err != nil {
				return err
			}
			_, err = r.Run(ctx, "VA")
			return err
		}},
		{"Run/GEMV", 15, run(tiny, "GEMV")}, // a multi-buffer host
		{"Run/SEL", 16, run(tiny, "SEL")},   // verification walks per-tasklet regions
		// Graph and sparse-matrix inputs come from the input memo, as the
		// vectors do (3463 and 977 when every run rebuilt them).
		{"Run/BFS", 37, run(tiny, "BFS")},
		{"Run/SpMV", 15, run(tiny, "SpMV")},
		{"Experiment/table1", 47, experiment("table1")},
		{"Experiment/table2", 56, experiment("table2")},
		{"Explore/hbm-pim", 79, func() error {
			x, err := upim.Explore(ctx, hbm, upim.ExploreOptions{Parallelism: 1})
			if err != nil {
				return err
			}
			return x.FirstErr()
		}},
		{"Serve/wfq", 169, func() error {
			_, err := upim.Serve(ctx, serve)
			return err
		}},
		{"Serve/slo", 169, func() error {
			_, err := upim.Serve(ctx, serveSLO)
			return err
		}},
		{"WriteReport", 75, func() error { return upim.WriteReport(report, coldTables) }},
		{"ServeLoadSweep/2-workers", 805, func() error { return serveSweep(ctx) }}, // 731 + 10 %
		// What a rerun over a populated store costs after enumeration:
		// reopen the store, 72 hits, four tables, WriteReport.
		{"ExploreResumed/2-workers", 2930, func() error { // 2664 + 10 %
			store, err := upim.OpenResultStore(storeDir)
			if err != nil {
				return err
			}
			x, err := upim.Explore(ctx, space, upim.ExploreOptions{Parallelism: 2, Store: store})
			if err != nil {
				return err
			}
			if x.Simulated != 0 {
				return fmt.Errorf("resumed pass simulated %d points", x.Simulated)
			}
			return upim.WriteReport(report, tables(x))
		}},
	} {
		t.Run(row.name, func(t *testing.T) {
			call := func() {
				if err := row.call(); err != nil {
					t.Fatal(err)
				}
			}
			// The counter is the process's, and the runtime allocates too:
			// after a collection its sudog, defer and pool caches refill (2-8
			// extra on one Serve call in six), and a type-switch cache grows
			// on one miss in 1024. Both only ever add. So collect what the
			// rows before left, count with the collector off, and recount a
			// miss: a real regression misses every time.
			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			got := testing.AllocsPerRun(1, call)
			for recount := 0; recount < 4 && got > row.ceiling; recount++ {
				got = testing.AllocsPerRun(1, call)
			}
			if got > row.ceiling {
				t.Errorf("%.0f allocs per warm call, ceiling %.0f", got, row.ceiling)
			}
		})
	}
}

// The shape of the repo benchmark's serve_sweep: four kernels profiled once,
// 3 policies x 4 loads of 4 000 requests per tenant replayed on two workers.
const (
	serveSweepCells    = 3 * 4
	serveSweepRequests = 2 * 4000 // per cell
)

func serveSweep(ctx context.Context) error {
	opts := upim.ServeOptions{
		Tenants: []upim.ServeTenant{
			{Name: "latency", Mix: []string{"VA", "GEMV"}, Weight: 3, SLOClass: "latency"},
			{Name: "batch", Mix: []string{"BS", "RED"}, Weight: 1, SLOClass: "batch"},
		},
		Groups: 2, MaxBatch: 4, Requests: serveSweepRequests / 2, Seed: 1, Scale: upim.ScaleTiny, Parallelism: 2,
	}
	_, err := upim.ServeLoadSweep(ctx, opts, []string{"fifo", "wfq", "slo"}, []float64{0.5, 0.8, 0.95, 1.1})
	return err
}

// TestWarmServeLoadSweepBytes is the memory half of the serving contract:
// the heap bytes one warm serve_sweep-shaped ServeLoadSweep allocates per
// replayed request. An allocation count misses a buffer that grows, and a
// load sweep's bytes scale with its requests. A cell builds no Records, and
// each worker replays its cells in one set of outcome, queue and latency
// buffers, so what scales is each load's arrival stream; that reads 36.2 B
// a request on a 2-vCPU Xeon (39.0 when the generator buffered every
// tenant's draws before merging them, 83.2 when every cell allocated its
// own buffers), and the ceiling is the reading plus 10 %.
func TestWarmServeLoadSweepBytes(t *testing.T) {
	const ceiling = 40.0 // bytes per replayed request
	ctx := context.Background()
	if err := serveSweep(ctx); err != nil { // warm: kernels built, pools filled
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := serveSweep(ctx); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	perRequest := float64(after.TotalAlloc-before.TotalAlloc) / (serveSweepCells * serveSweepRequests)
	if perRequest > ceiling {
		t.Errorf("%.1f bytes per replayed request, ceiling %.0f", perRequest, ceiling)
	}
}

// TestSpacePointsBytes is the bytes row of enumeration: the heap bytes one
// Points call of tiered_triage's space (16 benchmarks over five two-level
// axes, 512 points) allocates per point. Each point carries its design and
// label strings, and the 512-byte points sit in one slice sized from Size:
// that reads 1297.5 B a point on a 2-vCPU Xeon (2010.5 when the slice grew
// by appending), and the ceiling is the reading plus 10 %.
func TestSpacePointsBytes(t *testing.T) {
	const ceiling = 1430.0 // bytes per point
	axes, err := upim.ParseAxes("tasklets=1,16;freq=350,700;link=1,4;ilp=base,DRSF;mode=scratchpad,cache")
	if err != nil {
		t.Fatal(err)
	}
	space := upim.NewDesignSpace(upim.Benchmarks(), axes...)
	space.Scale = upim.ScaleTiny
	if _, err := space.Points(); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	pts, err := space.Points()
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	perPoint := float64(after.TotalAlloc-before.TotalAlloc) / float64(len(pts))
	if perPoint > ceiling {
		t.Errorf("%.1f bytes per point, ceiling %.0f", perPoint, ceiling)
	}
}
