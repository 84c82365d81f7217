package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"

	"upim"
	"upim/internal/cli"
)

const defaultArtifact = "internal/estimate/calibration/default.json"

// calibrate implements `pathfind calibrate`: rerun the analytical
// estimator's calibration suite on the cycle-exact simulator and rewrite the
// committed artifact — or, with -check, verify that the committed artifact
// is byte-identical to a fresh run and that its measured per-figure errors
// stay within its committed bounds (the `make calibration-check` CI gate).
// Its -out names one artifact file and its -check a byte comparison, so they
// are its own flags, not cli.Report's.
func calibrate(fs *flag.FlagSet) func(context.Context) error {
	var (
		sim   cli.Sim
		bench = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		name  = fs.String("name", "default", "calibration name recorded in the artifact")
		out   = fs.String("out", defaultArtifact, "artifact path to write (or, with -check, to verify)")
		check = fs.Bool("check", false, "verify the committed artifact instead of rewriting it: fail on byte drift or a per-figure error over its committed bound")
	)
	sim.Register(fs)
	return func(ctx context.Context) error {
		opts := upim.FitCalibrationOptions{Name: *name, Scale: sim.Scale, Parallelism: sim.Jobs}
		if *bench != "" {
			opts.Benchmarks = strings.Split(*bench, ",")
		}

		fmt.Fprintf(os.Stderr, "pathfind calibrate: running the calibration suite at scale %s...\n", sim.Scale)
		cal, obs, err := upim.FitCalibration(ctx, opts)
		if err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "pathfind calibrate: simulated %d runs\n", len(obs))
		fresh, err := cal.Marshal()
		if err != nil {
			return err
		}
		// Under -check the committed artifact must equal the refit byte for
		// byte, so the refit's bounds are the committed ones.
		if *check {
			disk, err := os.ReadFile(*out)
			if err != nil {
				return err
			}
			if !bytes.Equal(fresh, disk) {
				return fmt.Errorf("%s drifts from a fresh calibration run — regenerate it with `pathfind calibrate` and commit the result", *out)
			}
		} else if err := os.WriteFile(*out, fresh, 0o644); err != nil {
			return err
		}
		errs, err := upim.CalibrationFigureErrors(cal, obs)
		if err != nil {
			return err
		}
		printFigureErrors(errs, cal)
		if !*check {
			fmt.Printf("pathfind calibrate: wrote %s (%d figure bounds)\n", *out, len(cal.Bounds))
			return nil
		}
		if err := upim.CheckCalibrationBounds(cal, errs); err != nil {
			return err
		}
		fmt.Printf("pathfind calibrate: %s verified: no drift, every figure within its committed bound\n", *out)
		return nil
	}
}

// printFigureErrors renders measured per-figure errors next to the
// calibration's committed bounds.
func printFigureErrors(errs map[string]float64, cal *upim.CalibrationProfile) {
	bounds := map[string]float64{}
	for _, b := range cal.Bounds {
		bounds[b.Figure] = b.MaxRelErr
	}
	figs := make([]string, 0, len(errs))
	for f := range errs {
		figs = append(figs, f)
	}
	sort.Strings(figs)
	fmt.Printf("%-8s %12s %12s\n", "figure", "max rel err", "bound")
	for _, f := range figs {
		fmt.Printf("%-8s %11.2f%% %11.2f%%\n", f, errs[f]*100, bounds[f]*100)
	}
}
