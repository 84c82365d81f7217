package estimate

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/prim"
)

// modeFor maps a signature's mode string back to a config.Mode.
func modeFor(t *testing.T, s string) config.Mode {
	t.Helper()
	m, err := config.ParseMode(s)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// anchorPoint reconstructs the engine.Point a signature was captured at.
func anchorPoint(t *testing.T, sig *Signature) engine.Point {
	t.Helper()
	if sig.Scale != prim.ScaleTiny.String() {
		t.Fatalf("signature %s/%s has scale %q, the committed calibration is fitted at tiny",
			sig.Benchmark, sig.Mode, sig.Scale)
	}
	cfg := config.Default()
	cfg.Mode = modeFor(t, sig.Mode)
	cfg.NumTasklets = sig.Tasklets
	if cfg.FreqMHz != sig.FreqMHz || cfg.LinkBytesPerCycle != sig.LinkBytesPerCycle {
		t.Fatalf("signature %s/%s anchored at %d MHz / %d B/cyc, default config is %d / %d",
			sig.Benchmark, sig.Mode, sig.FreqMHz, sig.LinkBytesPerCycle, cfg.FreqMHz, cfg.LinkBytesPerCycle)
	}
	return engine.Point{Benchmark: sig.Benchmark, Config: cfg, DPUs: sig.DPUs, Scale: prim.ScaleTiny}
}

func TestDefaultCalibration(t *testing.T) {
	cal := Default()
	if err := cal.Validate(); err != nil {
		t.Fatalf("committed default calibration invalid: %v", err)
	}
	if len(cal.Bounds) == 0 || len(cal.Signatures) == 0 {
		t.Fatalf("committed calibration is empty: %d bounds, %d signatures", len(cal.Bounds), len(cal.Signatures))
	}
	// Default returns a defensive copy: mutating it must not poison later calls.
	cal.Weights.Issue = -1
	cal.Signatures[0].Benchmark = "tampered"
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() shares state with a mutated copy: %v", err)
	}
}

// TestAnchorExactness pins the issue-slot accounting identity: at its own
// anchor configuration, every committed signature's prediction must land
// within the committed anchor-figure bound of the measured cycle count.
func TestAnchorExactness(t *testing.T) {
	cal := Default()
	bound := 0.0
	for _, b := range cal.Bounds {
		if b.Figure == "fig5" || b.Figure == "fig11" || b.Figure == "fig15" {
			bound = math.Max(bound, b.MaxRelErr)
		}
	}
	if bound == 0 {
		t.Fatal("committed calibration has no anchor-figure bounds")
	}
	est, err := New(cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cal.Signatures {
		sig := &cal.Signatures[i]
		e, err := est.Estimate(anchorPoint(t, sig))
		if err != nil {
			t.Fatalf("%s/%s/t%d: %v", sig.Benchmark, sig.Mode, sig.Tasklets, err)
		}
		cycles := float64(sig.Stats.Cycles)
		rel := math.Abs(e.KernelCycles-cycles) / cycles
		if rel > bound {
			t.Errorf("%s/%s/t%d: anchor prediction %.1f vs measured %.0f cycles (rel err %.4f > bound %.4f)",
				sig.Benchmark, sig.Mode, sig.Tasklets, e.KernelCycles, cycles, rel, bound)
		}
	}
}

func TestEstimateDeterministic(t *testing.T) {
	est, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := anchorPoint(t, &Default().Signatures[0])
	p.Config = p.Config.WithILP("DRSF")
	p.Config.FreqMHz *= 2
	a, err := est.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := est.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if *a != *b {
		t.Fatalf("estimates differ across calls:\n%+v\n%+v", a, b)
	}
	if a.KernelCycles < 1 || a.TotalSeconds <= 0 || a.MicroJoules() <= 0 {
		t.Fatalf("degenerate estimate: %+v", a)
	}
}

func TestEstimateNoSignature(t *testing.T) {
	est, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	p := engine.Point{Benchmark: "no-such-benchmark", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	if _, err := est.Estimate(p); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("want ErrNoSignature, got %v", err)
	}
	// Known benchmark at an uncalibrated tasklet count is likewise a miss,
	// not a silent extrapolation.
	q := anchorPoint(t, &Default().Signatures[0])
	q.Config.NumTasklets = 3
	if _, err := est.Estimate(q); !errors.Is(err, ErrNoSignature) {
		t.Fatalf("uncovered tasklet count: want ErrNoSignature, got %v", err)
	}
}

// TestRefitReproducesCommitted is the in-tree mirror of the CI
// calibration-check gate: a from-scratch refit of the full suite must
// reproduce the committed artifact byte-for-byte (fit determinism + no
// drift), its measured per-figure errors must stay within the committed
// bounds, and estimates under the refit must equal estimates under the
// committed calibration (estimate -> refit -> estimate stability).
func TestRefitReproducesCommitted(t *testing.T) {
	if testing.Short() {
		t.Skip("refit simulates the full calibration suite; skipped under -short")
	}
	committed := Default()
	cal, obs, err := Fit(context.Background(), FitOptions{Scale: prim.ScaleTiny})
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := cal.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	disk, err := committed.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fresh, disk) {
		t.Fatalf("refit drifts from the committed artifact (%d vs %d bytes) — regenerate with `pathfind calibrate`", len(fresh), len(disk))
	}
	errs, err := FigureErrors(committed, obs)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckBounds(committed, errs); err != nil {
		t.Fatal(err)
	}
	if len(errs) != len(committed.Bounds) {
		t.Fatalf("measured %d figures, committed %d bounds", len(errs), len(committed.Bounds))
	}

	estA, err := New(committed, nil)
	if err != nil {
		t.Fatal(err)
	}
	estB, err := New(cal, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		a, err := estA.Estimate(o.Point)
		if err != nil {
			t.Fatal(err)
		}
		b, err := estB.Estimate(o.Point)
		if err != nil {
			t.Fatal(err)
		}
		if *a != *b {
			t.Fatalf("estimate for %s/%s diverges after refit:\n%+v\n%+v", o.Point.Benchmark, o.Point.Config.Mode, a, b)
		}
	}
}

func TestCheckBoundsRejects(t *testing.T) {
	cal := Default()
	if err := CheckBounds(cal, map[string]float64{"fig5": 0.5}); err == nil ||
		!strings.Contains(err.Error(), "exceeds committed bound") {
		t.Fatalf("over-bound error not rejected: %v", err)
	}
	if err := CheckBounds(cal, map[string]float64{"fig99": 0.0}); err == nil ||
		!strings.Contains(err.Error(), "no committed bound") {
		t.Fatalf("unknown figure not rejected: %v", err)
	}
	if err := CheckBounds(cal, map[string]float64{"fig5": 0.0}); err != nil {
		t.Fatalf("in-bound measurement rejected: %v", err)
	}
}
