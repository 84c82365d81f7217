// Command upimulator runs one PrIM kernel on the simulated UPMEM-PIM system
// and prints the cycle-level statistics the paper's characterization is
// built from.
//
// Usage:
//
//	upimulator -kernel VA -threads 16 -dpus 4 -mode scratchpad -scale small
//
// With -kernel all it runs the whole PrIM suite (all 16 workloads)
// concurrently and prints a one-line summary per benchmark — the quickest way
// to see the suite's compute-vs-memory-bound split (Section IV-A). -energy
// adds per-benchmark energy columns, and -out DIR exports the full results —
// phase timings plus every stats counter — as a browsable artifact report
// (CSV + JSON + Markdown + index.md) via upim.SuiteTable:
//
//	upimulator -kernel all -energy -out /tmp/suite
//
// The serve subcommand evaluates the system as a multi-tenant server
// under an open-loop request stream instead of a single closed run:
//
//	upimulator serve -tenants "alpha=VA+RED:3;beta=BS:1" -policy wfq -load 0.9
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"upim"
	"upim/internal/cli"
	"upim/internal/config"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with the exit code returned: 2 for a usage error, 1 for a
// failed run.
func run(args []string) int {
	if len(args) > 0 && args[0] == "serve" {
		return cli.Main("upimulator serve", args[1:], serve)
	}
	return cli.Main("upimulator", args, simulate)
}

func simulate(fs *flag.FlagSet) func(context.Context) error {
	var (
		sim     cli.Sim
		rep     cli.Report // only -out: the suite has no committed references to check
		kernel  = fs.String("kernel", "VA", "PrIM benchmark name ("+strings.Join(upim.Benchmarks(), ", ")+"), or all for the suite")
		threads = fs.Int("threads", 16, "tasklets per DPU (1-16 for PrIM kernels)")
		dpus    = fs.Int("dpus", 1, "number of DPUs")
		mode    = fs.String("mode", "scratchpad", "memory model: scratchpad, cache or simt (GEMV only)")
		ilp     = fs.String("ilp", "", "ILP features, a subset of DRSF or base (Fig 12)")
		mmu     = fs.Bool("mmu", false, "enable the case-study 3 MMU")
		energyF = fs.Bool("energy", false, "suite: print per-benchmark energy, power and EDP (and add an energy breakdown table to -out)")
		profile = fs.String("profile", "", "suite: energy TechProfile JSON overriding the committed default")
	)
	sim.Register(fs)
	fs.StringVar(&rep.Out, "out", "", "suite: export the results as an artifact report into this directory")
	return func(ctx context.Context) error {
		cfg := upim.DefaultConfig()
		if *mmu {
			cfg.MMU.Enable = true
			cfg.MMU.Prefault = false
		}
		tasklets := *threads
		var err error
		if cfg.Mode, err = config.ParseMode(*mode); err != nil {
			return cli.Usage(err)
		}
		if cfg.Mode == upim.ModeSIMT {
			cfg.SIMTCoalesce = true
			tasklets = 16 * 16
		}
		features, err := config.ParseILP(*ilp)
		if err != nil {
			return cli.Usage(err)
		}
		cfg = cfg.WithILP(features)
		suite := *kernel == "all"
		if !suite && (*energyF || *profile != "" || rep.Out != "") {
			return cli.Usagef("-energy, -profile and -out only affect the suite run; add -kernel all to use them")
		}
		var prof *upim.TechProfile // nil = the committed default profile
		if *profile != "" {
			if !*energyF {
				return cli.Usagef("-profile only affects the -energy columns and table; add -energy to use it")
			}
			if prof, err = upim.LoadTechProfile(*profile); err != nil {
				return cli.Usage(err)
			}
		}
		opts := []upim.RunnerOption{
			upim.WithConfig(cfg),
			upim.WithTasklets(tasklets),
			upim.WithDPUs(*dpus),
			upim.WithScale(sim.Scale),
		}
		if sim.Jobs > 0 {
			opts = append(opts, upim.WithParallelism(sim.Jobs))
		}
		r, err := upim.NewRunner(opts...)
		if err != nil {
			return err
		}
		if suite {
			title := fmt.Sprintf("PrIM suite at scale %q, %d tasklets, %d DPUs", sim.Scale, *threads, *dpus)
			return runSuite(ctx, r, sim.Scale.String(), title, *energyF, prof, rep)
		}
		res, err := r.Run(ctx, *kernel)
		if err != nil {
			return err
		}
		fmt.Printf("%s: %s mode, %d tasklets x %d DPUs, scale %s — output verified against golden model\n\n",
			res.Benchmark, res.Mode, res.Tasklets, res.DPUs, sim.Scale)
		fmt.Print(res.Stats.Summary())
		fmt.Printf("\nmodeled wall-clock (ms): kernel %.3f  CPU->DPU %.3f  DPU->CPU %.3f  DPU<->DPU %.3f  total %.3f\n",
			res.Report.KernelSeconds*1e3,
			res.Report.TransferSeconds[0]*1e3,
			res.Report.TransferSeconds[1]*1e3,
			res.Report.TransferSeconds[2]*1e3,
			res.Report.Total()*1e3)
		return nil
	}
}
