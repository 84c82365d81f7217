package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"

	"upim"
)

const defaultArtifact = "internal/estimate/calibration/default.json"

// runCalibrate implements `pathfind calibrate`: refit the analytical
// estimator's calibration against the cycle-exact simulator and rewrite the
// committed artifact — or, with -check, verify that the committed artifact
// is byte-identical to a fresh refit and that its measured per-figure errors
// stay within its committed bounds (the `make calibration-check` CI gate).
func runCalibrate(args []string) int {
	fs := flag.NewFlagSet("pathfind calibrate", flag.ExitOnError)
	var (
		scale = fs.String("scale", "tiny", "dataset scale of the calibration suite: tiny, small or paper")
		bench = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		name  = fs.String("name", "default", "calibration name recorded in the artifact")
		jobs  = fs.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		out   = fs.String("out", defaultArtifact, "artifact path to write (or, with -check, to verify)")
		check = fs.Bool("check", false, "verify the committed artifact instead of rewriting it: fail on byte drift or a per-figure error over its committed bound")
	)
	fs.Parse(args)

	sc, err := upim.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
		return 2
	}
	opts := upim.FitCalibrationOptions{Name: *name, Scale: sc, Parallelism: *jobs}
	if *bench != "" {
		opts.Benchmarks = strings.Split(*bench, ",")
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	fmt.Fprintf(os.Stderr, "pathfind calibrate: running the calibration suite at scale %s...\n", *scale)
	cal, obs, err := upim.FitCalibration(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "pathfind calibrate: fitted %d signatures from %d runs\n", len(cal.Signatures), len(obs))

	if *check {
		committed, err := upim.LoadCalibration(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
			return 1
		}
		fresh, err := cal.Marshal()
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
			return 1
		}
		disk, err := os.ReadFile(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
			return 1
		}
		if !bytes.Equal(fresh, disk) {
			fmt.Fprintf(os.Stderr, "pathfind calibrate: %s drifts from a fresh refit — regenerate it with `pathfind calibrate` and commit the result\n", *out)
			return 1
		}
		errs, err := upim.CalibrationFigureErrors(committed, obs)
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
			return 1
		}
		printFigureErrors(errs, committed)
		if err := upim.CheckCalibrationBounds(committed, errs); err != nil {
			fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
			return 1
		}
		fmt.Printf("pathfind calibrate: %s verified: no drift, every figure within its committed bound\n", *out)
		return 0
	}

	data, err := cal.Marshal()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
		return 1
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
		return 1
	}
	errs, err := upim.CalibrationFigureErrors(cal, obs)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind calibrate:", err)
		return 1
	}
	printFigureErrors(errs, cal)
	fmt.Printf("pathfind calibrate: wrote %s (%d signatures, %d figure bounds)\n", *out, len(cal.Signatures), len(cal.Bounds))
	return 0
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
