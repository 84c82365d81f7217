// Command prim runs the PrIM benchmark suite (all 16 workloads) and prints a
// one-line summary per benchmark — the quickest way to see the suite's
// compute-vs-memory-bound split (Section IV-A).
//
// The suite runs concurrently on the Runner's worker pool; Ctrl-C cancels
// in-flight simulations. With -out DIR the full per-benchmark results —
// phase timings plus every stats counter — are exported as a browsable
// artifact report (CSV + JSON + Markdown + index.md) via upim.SuiteTable.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"

	"upim"
	"upim/internal/cli"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		threads = flag.Int("threads", 16, "tasklets per DPU")
		dpus    = flag.Int("dpus", 1, "number of DPUs")
		cache   = flag.Bool("cache", false, "use the cache-centric memory model")
		scale   = flag.String("scale", "tiny", "dataset scale: tiny, small or paper")
		jobs    = flag.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		out     = flag.String("out", "", "export the suite results as an artifact report into this directory")
		energyF = flag.Bool("energy", false, "print per-benchmark energy, power and EDP (and add an energy breakdown table to -out)")
		profile = flag.String("profile", "", "energy TechProfile JSON overriding the committed default")
		cpuprof = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" || *memprof != "" {
		stop, err := cli.Profile(*cpuprof, *memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "prim:", err)
			return 1
		}
		defer stop()
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	sc, err := upim.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prim:", err)
		return 2
	}
	var prof *upim.TechProfile // nil = the committed default profile
	if *profile != "" {
		if !*energyF {
			fmt.Fprintln(os.Stderr, "prim: -profile only affects the -energy columns and table; add -energy to use it")
			return 2
		}
		var err error
		if prof, err = upim.LoadTechProfile(*profile); err != nil {
			fmt.Fprintln(os.Stderr, "prim:", err)
			return 1
		}
	}
	opts := []upim.RunnerOption{
		upim.WithTasklets(*threads),
		upim.WithDPUs(*dpus),
		upim.WithScale(sc),
	}
	if *cache {
		opts = append(opts, upim.WithMode(upim.ModeCache))
	}
	if *jobs > 0 {
		opts = append(opts, upim.WithParallelism(*jobs))
	}
	r, err := upim.NewRunner(opts...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "prim:", err)
		return 1
	}

	names := upim.Benchmarks()
	points := make([]upim.Point, len(names))
	for i, name := range names {
		points[i] = upim.Point{Benchmark: name}
	}
	results := make([]upim.SweepResult, len(points))
	done := make([]bool, len(points))
	for sr := range r.Sweep(ctx, points) {
		results[sr.Index] = sr
		done[sr.Index] = true
	}

	fmt.Printf("%-10s %12s %10s %8s %10s", "benchmark", "instructions", "cycles", "IPC", "DRAM MB")
	if *energyF {
		fmt.Printf(" %10s %9s %12s", "energy uJ", "power mW", "EDP uJ*ms")
	}
	fmt.Printf(" %12s\n", "verified")
	failed := 0
	for i, name := range names {
		switch {
		case !done[i]:
			fmt.Printf("%-10s cancelled\n", name)
			failed++
		case results[i].Err != nil:
			fmt.Printf("%-10s %s\n", name, results[i].Err)
			failed++
		default:
			res := results[i].Result
			fmt.Printf("%-10s %12d %10d %8.3f %10.2f",
				name, res.Stats.Instructions, res.Stats.Cycles, res.Stats.IPC(),
				float64(res.Stats.DRAM.BytesRead)/1e6)
			if *energyF {
				rep := upim.EnergyOf(res, prof)
				total := res.Report.Total()
				fmt.Printf(" %10.4g %9.4g %12.4g",
					rep.MicroJoules(), rep.PowerWatts(total)*1e3, rep.EDPMicroJouleMS(total))
			}
			fmt.Printf(" %12s\n", "PASS")
		}
	}
	if *out != "" {
		suite := make([]*upim.Result, 0, len(results))
		for i := range results {
			if done[i] && results[i].Err == nil {
				suite = append(suite, results[i].Result)
			}
		}
		tab := upim.SuiteTable(fmt.Sprintf("PrIM suite at scale %q, %d tasklets, %d DPUs", *scale, *threads, *dpus), suite)
		tab.Key = "prim"
		tab.Scale = *scale
		tabs := []*upim.ResultTable{tab}
		if *energyF {
			etab := upim.EnergyTable(fmt.Sprintf("PrIM suite energy at scale %q", *scale), suite, prof)
			etab.Scale = *scale
			tabs = append(tabs, etab)
		}
		if err := upim.WriteReport(*out, tabs); err != nil {
			fmt.Fprintln(os.Stderr, "prim:", err)
			return 1
		}
		fmt.Fprintf(os.Stderr, "prim: wrote suite artifacts to %s\n", *out)
	}
	if failed > 0 {
		return 1
	}
	return 0
}
