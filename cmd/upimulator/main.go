// Command upimulator runs one PrIM kernel on the simulated UPMEM-PIM system
// and prints the cycle-level statistics the paper's characterization is
// built from.
//
// Usage:
//
//	upimulator -kernel VA -threads 16 -dpus 4 -mode scratchpad -scale small
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
	"os/signal"
	"strings"

	"upim"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is main with the exit code returned: 2 for a usage error, 1 for a
// failed run.
func run(args []string) int {
	if len(args) > 0 && args[0] == "serve" {
		return serveMain(args[1:])
	}
	fs := flag.NewFlagSet("upimulator", flag.ExitOnError)
	var (
		kernel  = fs.String("kernel", "VA", "PrIM benchmark name ("+strings.Join(upim.Benchmarks(), ", ")+")")
		threads = fs.Int("threads", 16, "tasklets per DPU (1-16 for PrIM kernels)")
		dpus    = fs.Int("dpus", 1, "number of DPUs")
		mode    = fs.String("mode", "scratchpad", "memory model: scratchpad, cache or simt (GEMV only)")
		scale   = fs.String("scale", "small", "dataset scale: tiny, small or paper")
		ilp     = fs.String("ilp", "", "ILP features, a subset of DRSF (Fig 12)")
		mmu     = fs.Bool("mmu", false, "enable the case-study 3 MMU")
	)
	fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	cfg := upim.DefaultConfig()
	if *mmu {
		cfg.MMU.Enable = true
		cfg.MMU.Prefault = false
	}
	tasklets := *threads
	switch *mode {
	case "scratchpad":
		cfg.Mode = upim.ModeScratchpad
	case "cache":
		cfg.Mode = upim.ModeCache
	case "simt":
		cfg.Mode = upim.ModeSIMT
		cfg.SIMTCoalesce = true
		tasklets = 16 * 16
	default:
		return fail(2, fmt.Errorf("unknown mode %q (want scratchpad, cache or simt)", *mode))
	}
	opts := []upim.RunnerOption{
		upim.WithConfig(cfg),
		upim.WithTasklets(tasklets),
		upim.WithDPUs(*dpus),
		upim.WithILP(*ilp),
	}
	sc, err := upim.ParseScale(*scale)
	if err != nil {
		return fail(2, err)
	}
	opts = append(opts, upim.WithScale(sc))

	r, err := upim.NewRunner(opts...)
	if err != nil {
		return fail(1, err)
	}
	res, err := r.Run(ctx, *kernel)
	if err != nil {
		return fail(1, err)
	}
	fmt.Printf("%s: %s mode, %d tasklets x %d DPUs, scale %s — output verified against golden model\n\n",
		res.Benchmark, res.Mode, res.Tasklets, res.DPUs, sc)
	fmt.Print(res.Stats.Summary())
	fmt.Printf("\nmodeled wall-clock (ms): kernel %.3f  CPU->DPU %.3f  DPU->CPU %.3f  DPU<->DPU %.3f  total %.3f\n",
		res.Report.KernelSeconds*1e3,
		res.Report.TransferSeconds[0]*1e3,
		res.Report.TransferSeconds[1]*1e3,
		res.Report.TransferSeconds[2]*1e3,
		res.Report.Total()*1e3)
	return 0
}

func fail(code int, err error) int {
	fmt.Fprintln(os.Stderr, "upimulator:", err)
	return code
}
