// Command figures regenerates the paper's evaluation artifacts: every table
// and figure has a corresponding experiment (see -list). Results print as
// aligned text tables, export as a browsable report (-out: per-figure
// CSV + JSON + Markdown plus an index.md mapping artifacts to paper figure
// numbers), and validate against the committed tiny-scale reference results
// (-check), turning the whole figure suite into a regression oracle.
//
// Usage:
//
//	figures -list
//	figures -exp fig12 -scale small
//	figures -exp all -scale tiny -bench VA,BS
//	figures -exp all -scale tiny -out /tmp/report -check
//
// Maintainers regenerate the reference artifacts (only when a simulation
// change is meant to move the figures) with:
//
//	figures -exp all -scale tiny -writeref internal/figures/refdata
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"upim"
	"upim/internal/cli"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		exp      = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scale    = flag.String("scale", "tiny", "dataset scale: tiny, small or paper")
		bench    = flag.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		jobs     = flag.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		list     = flag.Bool("list", false, "list available experiments")
		out      = flag.String("out", "", "write a browsable report (CSV+JSON+Markdown+index.md) into this directory")
		check    = flag.Bool("check", false, "validate results against the committed reference artifacts")
		eps      = flag.Float64("eps", 0, "relative tolerance for -check (0 = the 1% default)")
		writeref = flag.String("writeref", "", "write reference JSON artifacts into this directory (maintainers only)")
		profile  = flag.String("profile", "", "energy TechProfile JSON overriding the committed default (energy experiment)")
		energyT  = flag.Bool("energy", false, "also run the energy experiment when -exp selects something else")
		cpuprof  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()

	if *cpuprof != "" || *memprof != "" {
		stop, err := cli.Profile(*cpuprof, *memprof)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 1
		}
		defer stop()
	}

	if *list {
		for _, e := range upim.Experiments() {
			fmt.Printf("%-12s %s\n", e.ID, e.About)
		}
		return 0
	}
	if (*check || *writeref != "") && *bench != "" {
		fmt.Fprintln(os.Stderr, "figures: -check/-writeref compare full-suite tables; drop -bench")
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	sc, err := upim.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "figures:", err)
		return 2
	}
	opts := upim.ExperimentOptions{Scale: sc, Parallelism: *jobs}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}
	if *profile != "" {
		p, err := upim.LoadTechProfile(*profile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "figures:", err)
			return 2
		}
		opts.Profile = p
		// Only the energy experiment reads the profile; a run that will never
		// reach it would silently produce default-profile-independent tables
		// the user believes were recalibrated.
		if *exp != "all" && *exp != "energy" && !*energyT {
			fmt.Fprintf(os.Stderr, "figures: -profile only affects the energy experiment; add -energy or -exp energy to use %s\n", p.Name)
			return 2
		}
	}

	var tables []*upim.ResultTable
	runExp := func(id string) bool {
		tab, err := upim.RunExperimentContext(ctx, id, opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figures: %s: %v\n", id, err)
			return false
		}
		tab.Fprint(os.Stdout)
		tables = append(tables, tab)
		return true
	}
	if *exp == "all" {
		for _, e := range upim.Experiments() {
			if !runExp(e.ID) {
				return 1
			}
		}
	} else {
		if !runExp(*exp) {
			return 1
		}
		if *energyT && *exp != "energy" && !runExp("energy") {
			return 1
		}
	}

	return cli.Report{Out: *out, WriteRef: *writeref, Check: *check, Eps: *eps}.Finish("figures", tables)
}
