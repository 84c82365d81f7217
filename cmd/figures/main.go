// Command figures regenerates the paper's evaluation artifacts: every table
// and figure has a corresponding experiment (see -list). Results print as
// aligned text tables, export as a browsable report (-out: per-figure
// CSV + JSON + Markdown plus an index.md mapping artifacts to paper figure
// numbers), and validate against the committed tiny-scale reference results
// (-check), turning the whole figure suite into a regression oracle. The
// selected experiments run as one sweep, so a point two figures read is
// simulated once.
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
	"strings"

	"upim"
	"upim/internal/cli"
	figs "upim/internal/figures"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int { return cli.Main("figures", args, figures) }

func figures(fs *flag.FlagSet) func(context.Context) error {
	var (
		sim     cli.Sim
		rep     cli.Report
		exp     = fs.String("exp", "all", "experiment id (see -list) or 'all'")
		bench   = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		list    = fs.Bool("list", false, "list available experiments")
		profile = fs.String("profile", "", "energy TechProfile JSON overriding the committed default (energy experiment)")
		energyT = fs.Bool("energy", false, "also run the energy experiment when -exp selects something else")
	)
	sim.Register(fs)
	rep.Register(fs)
	return func(ctx context.Context) error {
		if *list {
			for _, e := range upim.Experiments() {
				fmt.Printf("%-12s %s\n", e.ID, e.About)
			}
			return nil
		}
		if (rep.Check || rep.WriteRef != "") && *bench != "" {
			return cli.Usagef("-check/-writeref compare full-suite tables; drop -bench")
		}
		if err := rep.Validate(); err != nil {
			return err
		}
		exps := figs.Experiments()
		if *exp != "all" {
			e, err := figs.ByID(*exp) // resolves paper-numbering aliases too
			if err != nil {
				var all []string
				for _, e := range exps {
					all = append(all, e.ID)
				}
				return cli.Usagef("unknown experiment %q (try: %s)", *exp, strings.Join(all, ", "))
			}
			exps = []figs.Experiment{e}
			if *energyT && e.ID != "energy" {
				energy, _ := figs.ByID("energy") // a registered ID cannot fail
				exps = append(exps, energy)
			}
		}
		opts := upim.ExperimentOptions{Scale: sim.Scale, Parallelism: sim.Jobs}
		if *bench != "" {
			opts.Benchmarks = strings.Split(*bench, ",")
		}
		if *profile != "" {
			p, err := upim.LoadTechProfile(*profile)
			if err != nil {
				return cli.Usage(err)
			}
			opts.Profile = p
			// Only the energy experiment reads the profile; a run that will never
			// reach it would silently produce default-profile-independent tables
			// the user believes were recalibrated.
			if *exp != "all" && *exp != "energy" && !*energyT {
				return cli.Usagef("-profile only affects the energy experiment; add -energy or -exp energy to use %s", p.Name)
			}
		}

		tables, err := figs.Run(ctx, opts, exps...)
		for _, tab := range tables {
			if tab != nil {
				tab.Fprint(os.Stdout)
			}
		}
		if err != nil {
			return err
		}
		return rep.Finish("figures", tables)
	}
}
