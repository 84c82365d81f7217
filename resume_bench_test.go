package upim_test

import (
	"context"
	"path/filepath"
	"testing"

	"upim"
)

// BenchmarkResumedPathfind is one resumed pathfind pass, the shape the repo
// benchmark's pathfind_resume workload times: open a populated store,
// explore the space (every point a hit), extract the four tables `pathfind
// -pareto -goals time,energy,cost -energy` renders and write the report. The
// store is populated once, before the loop, so what is timed is resumed
// passes only; `make profile-resume` runs it under -cpuprofile.
func BenchmarkResumedPathfind(b *testing.B) {
	axes, err := upim.ParseAxes("tasklets=1,4,16;freq=350,700;link=1,4;ilp=base,DR,DRSF;mode=scratchpad,cache")
	if err != nil {
		b.Fatal(err)
	}
	space := upim.NewDesignSpace([]string{"VA", "BS", "GEMV", "RED"}, axes...)
	space.Scale = upim.ScaleTiny
	space.DPUs = 1
	goals, err := upim.ParseGoals("time,energy,cost", nil)
	if err != nil {
		b.Fatal(err)
	}
	dir := b.TempDir()
	storeDir, reportDir := filepath.Join(dir, "store"), filepath.Join(dir, "report")
	pass := func() *upim.Exploration {
		store, err := upim.OpenResultStore(storeDir)
		if err != nil {
			b.Fatal(err)
		}
		x, err := upim.Explore(context.Background(), space, upim.ExploreOptions{Parallelism: 2, Store: store})
		if err != nil {
			b.Fatal(err)
		}
		tabs := []*upim.ResultTable{x.SummaryTable(), x.ParetoTable(goals...), x.BestTable(3), x.EnergyTable(nil)}
		if err := upim.WriteReport(reportDir, tabs); err != nil {
			b.Fatal(err)
		}
		return x
	}
	pass()
	for b.Loop() {
		if x := pass(); x.Simulated != 0 {
			b.Fatalf("a resumed pass simulated %d points", x.Simulated)
		}
	}
}
