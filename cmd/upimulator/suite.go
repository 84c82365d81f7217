package main

import (
	"context"
	"fmt"

	"upim"
	"upim/internal/cli"
)

// runSuite is `upimulator -kernel all`: every PrIM benchmark on r's worker
// pool, one summary line each. Ctrl-C cancels in-flight simulations; their
// rows read "cancelled".
func runSuite(ctx context.Context, r *upim.Runner, scale, title string, energy bool, prof *upim.TechProfile, rep cli.Report) error {
	names := upim.Benchmarks()
	points := make([]upim.Point, len(names))
	for i, name := range names {
		points[i] = upim.Point{Benchmark: name}
	}
	results := make([]upim.SweepResult, len(points)) // a point the sweep never reached stays zero
	for sr := range r.Sweep(ctx, points) {
		results[sr.Index] = sr
	}

	fmt.Printf("%-10s %12s %10s %8s %10s", "benchmark", "instructions", "cycles", "IPC", "DRAM MB")
	if energy {
		fmt.Printf(" %10s %9s %12s", "energy uJ", "power mW", "EDP uJ*ms")
	}
	fmt.Printf(" %12s\n", "verified")
	suite := make([]*upim.Result, 0, len(results))
	for i, name := range names {
		switch res := results[i].Result; {
		case results[i].Err != nil:
			fmt.Printf("%-10s %s\n", name, results[i].Err)
		case res == nil:
			fmt.Printf("%-10s cancelled\n", name)
		default:
			suite = append(suite, res)
			fmt.Printf("%-10s %12d %10d %8.3f %10.2f",
				name, res.Stats.Instructions, res.Stats.Cycles, res.Stats.IPC(),
				float64(res.Stats.DRAM.BytesRead)/1e6)
			if energy {
				e := upim.EnergyOf(res, prof)
				total := res.Report.Total()
				fmt.Printf(" %10.4g %9.4g %12.4g",
					e.MicroJoules(), e.PowerWatts(total)*1e3, e.EDPMicroJouleMS(total))
			}
			fmt.Printf(" %12s\n", "PASS")
		}
	}
	if rep.Out != "" {
		tab := upim.SuiteTable(title, suite)
		tab.Key = "prim"
		tab.Scale = scale
		tabs := []*upim.ResultTable{tab}
		if energy {
			etab := upim.EnergyTable(fmt.Sprintf("PrIM suite energy at scale %q", scale), suite, prof)
			etab.Scale = scale
			tabs = append(tabs, etab)
		}
		if err := rep.Finish("upimulator", tabs); err != nil {
			return err
		}
	}
	if len(suite) < len(names) {
		return cli.ErrReported
	}
	return nil
}
