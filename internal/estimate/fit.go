package estimate

import (
	"context"
	"fmt"
	"math"
	"sort"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/prim"
)

// FitOptions configures a calibration fit.
type FitOptions struct {
	// Name labels the resulting calibration (default "default").
	Name string
	// Scale selects the dataset scale of the calibration suite (default
	// ScaleTiny — the committed refdata scale, sub-second per run).
	Scale prim.Scale
	// Benchmarks restricts the suite (default: every PrIM workload).
	Benchmarks []string
	// Parallelism bounds the simulation worker pool (<= 0: GOMAXPROCS).
	Parallelism int
}

// Observation is one calibration-suite run: a simulation point tagged with
// the paper figure whose axis it probes, plus its cycle-exact result.
type Observation struct {
	// Figure tags the probe group (fig5 tasklet ladder, fig11 SIMT warps,
	// fig12 ILP ladder, fig13 link width, fig15 cache-mode ladder).
	Figure string
	// Point is the simulated configuration.
	Point engine.Point
	// Result is the cycle-exact run the estimator's predictions are compared
	// against; where Point is its own anchor, the run every estimate of the
	// anchor's group projects from.
	Result *prim.Result
}

// suitePoint is one planned calibration run.
type suitePoint struct {
	fig string
	ep  engine.Point
}

// suite plans the calibration runs for one benchmark: anchor ladders over
// tasklets × {scratchpad, cache} (and SIMT warps where supported), plus
// ILP/link probes at every anchor — a miniature of the
// paper's figure axes, which is what makes per-figure error bounds
// meaningful.
func suite(b *prim.Benchmark, scale prim.Scale) []suitePoint {
	base := config.Default()
	ladder := []int{1, 2, 4, 8, 16}
	point := func(cfg config.Config) engine.Point {
		return engine.Point{Benchmark: b.Name, Config: cfg, DPUs: 1, Scale: scale}
	}
	var pts []suitePoint

	// Anchor ladders: one anchor per (mode, tasklets).
	for _, m := range []struct {
		mode config.Mode
		fig  string
	}{{config.ModeScratchpad, "fig5"}, {config.ModeCache, "fig15"}} {
		for _, t := range ladder {
			cfg := base
			cfg.Mode = m.mode
			cfg.NumTasklets = t
			pts = append(pts, suitePoint{fig: m.fig, ep: point(cfg)})
		}
	}
	if b.SupportsSIMT {
		for _, warps := range []int{1, 2, 4} {
			cfg := base
			cfg.Mode = config.ModeSIMT
			cfg.NumTasklets = warps * cfg.SIMTWidth // lanes, matching Space's expansion
			pts = append(pts, suitePoint{fig: "fig11", ep: point(cfg)})
		}
	}

	// Timing probes at every anchor: each projects from its anchor's run
	// and exercises the analytic scalings off the anchor. Nothing is fitted
	// to them, so their errors are held-out errors.
	for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache} {
		for _, t := range ladder {
			anchor := base
			anchor.Mode = mode
			anchor.NumTasklets = t
			for _, ilp := range []string{"D", "R", "S", "F", "DRSF"} {
				pts = append(pts, suitePoint{fig: "fig12", ep: point(anchor.WithILP(ilp))})
			}
			for _, scaleUp := range []int{2, 4} {
				cfg := anchor
				cfg.LinkBytesPerCycle *= scaleUp
				pts = append(pts, suitePoint{fig: "fig13", ep: point(cfg)})
			}
			// Combined probe: the full ILP ladder on a wide link, so the
			// features are seen interacting rather than one axis at a time.
			combo := anchor.WithILP("DRSF")
			combo.LinkBytesPerCycle *= 4
			pts = append(pts, suitePoint{fig: "fig12", ep: point(combo)})
		}
	}
	return pts
}

// Fit simulates the calibration suite cycle-exactly and measures the
// committed per-figure error bounds (maximum relative error plus deterministic 10% headroom,
// rounded up at 1e-4 granularity so a rerun reproduces the artifact
// byte-for-byte). The model has no fitted parameters, so every probe is
// held out: the bounds are validation errors, not training residuals. It
// returns the calibration and the observations the bounds were measured
// over.
func Fit(ctx context.Context, opts FitOptions) (*Calibration, []Observation, error) {
	name := opts.Name
	if name == "" {
		name = "default"
	}
	benchNames := opts.Benchmarks
	if len(benchNames) == 0 {
		for _, b := range prim.Benchmarks() {
			benchNames = append(benchNames, b.Name)
		}
	}
	var plan []suitePoint
	for _, bn := range benchNames {
		b, err := prim.ByName(bn)
		if err != nil {
			return nil, nil, err
		}
		plan = append(plan, suite(b, opts.Scale)...)
	}

	eng := engine.New(opts.Parallelism)
	eps := make([]engine.Point, len(plan))
	for i, sp := range plan {
		eps[i] = sp.ep
	}
	outs, err := eng.SweepAll(ctx, eps)
	if err != nil {
		return nil, nil, fmt.Errorf("estimate: calibration suite: %w", err)
	}

	cal := &Calibration{Name: name, Format: CalibrationFormat}
	obs := make([]Observation, len(plan))
	for i, sp := range plan {
		obs[i] = Observation{Figure: sp.fig, Point: sp.ep, Result: outs[i].Result}
	}

	errs, err := FigureErrors(cal, obs)
	if err != nil {
		return nil, nil, err
	}
	for fig, e := range errs {
		// ceil at 1e-4 granularity after 10% headroom: deterministic, so the
		// drift check can demand byte equality of the committed artifact.
		cal.Bounds = append(cal.Bounds, FigureBound{Figure: fig, MaxRelErr: math.Ceil(e*1.10*1e4) / 1e4})
	}
	sort.Slice(cal.Bounds, func(i, j int) bool { return cal.Bounds[i].Figure < cal.Bounds[j].Figure })

	if err := cal.Validate(); err != nil {
		return nil, nil, err
	}
	return cal, obs, nil
}

// FigureErrors evaluates the calibration against a set of cycle-exact
// observations: for each figure group, the maximum relative error over both
// the kernel-cycle and the end-to-end-time prediction. Each observation is
// projected from its anchor's observation, so every anchor must be among
// them (Fit's suite holds them all).
func FigureErrors(cal *Calibration, obs []Observation) (map[string]float64, error) {
	est, err := New(cal, nil)
	if err != nil {
		return nil, err
	}
	anchors := map[engine.Point]*prim.Result{}
	for _, o := range obs {
		if a, err := AnchorOf(o.Point); err == nil && a == o.Point {
			anchors[a] = o.Result
		}
	}
	errs := map[string]float64{}
	for _, o := range obs {
		a, err := AnchorOf(o.Point)
		if err != nil {
			return nil, err
		}
		anchor := anchors[a]
		if anchor == nil {
			return nil, fmt.Errorf("estimate: %s observation %s/%s tasklets=%d has no anchor among the observations",
				o.Figure, o.Point.Benchmark, o.Point.Config.Mode, o.Point.Config.NumTasklets)
		}
		e := est.Project(o.Point, anchor)
		cycles, total := float64(o.Result.Stats.Cycles), o.Result.Report.Total()
		relCycles := math.Abs(e.KernelCycles-cycles) / math.Max(cycles, 1)
		relTotal := math.Abs(e.TotalSeconds-total) / math.Max(total, 1e-12)
		errs[o.Figure] = math.Max(errs[o.Figure], math.Max(relCycles, relTotal))
	}
	return errs, nil
}

// CheckBounds verifies measured per-figure errors against the calibration's
// committed bounds: every measured figure must have a bound and stay within
// it. This is the `make calibration-check` gate.
func CheckBounds(cal *Calibration, errs map[string]float64) error {
	bounds := map[string]float64{}
	for _, b := range cal.Bounds {
		bounds[b.Figure] = b.MaxRelErr
	}
	figs := make([]string, 0, len(errs))
	for f := range errs {
		figs = append(figs, f)
	}
	sort.Strings(figs)
	for _, f := range figs {
		bound, ok := bounds[f]
		if !ok {
			return fmt.Errorf("estimate: calibration %q has no committed bound for %s (measured %.4f)", cal.Name, f, errs[f])
		}
		if errs[f] > bound {
			return fmt.Errorf("estimate: calibration %q: %s relative error %.4f exceeds committed bound %.4f",
				cal.Name, f, errs[f], bound)
		}
	}
	return nil
}
