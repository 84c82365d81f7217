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
// the paper figure whose axis it probes, plus the cycle-exact measurements
// the fit regresses against and the bounds are checked over.
type Observation struct {
	// Figure tags the probe group (fig5 tasklet ladder, fig11 SIMT warps,
	// fig12 ILP ladder, fig13 link width, fig15 cache-mode ladder).
	Figure string
	// Point is the simulated configuration.
	Point engine.Point
	// Cycles and Total are the cycle-exact kernel cycle count and end-to-end
	// seconds the estimator's predictions are compared against.
	Cycles float64
	Total  float64
}

// suitePoint is one planned calibration run.
type suitePoint struct {
	fig    string
	ep     engine.Point
	anchor bool // anchors contribute workload signatures
}

// suite plans the calibration runs for one benchmark: anchor ladders over
// tasklets × {scratchpad, cache} (and SIMT warps where supported), plus
// ILP/link probes at the widest tasklet count — a miniature of the paper's
// figure axes, which is what makes per-figure error bounds meaningful.
func suite(b *prim.Benchmark, scale prim.Scale) []suitePoint {
	base := config.Default()
	ladder := []int{1, 2, 4, 8, 16}
	point := func(cfg config.Config) engine.Point {
		return engine.Point{Benchmark: b.Name, Config: cfg, DPUs: 1, Scale: scale}
	}
	var pts []suitePoint

	// Anchor ladders: one signature per (mode, tasklets).
	for _, m := range []struct {
		mode config.Mode
		fig  string
	}{{config.ModeScratchpad, "fig5"}, {config.ModeCache, "fig15"}} {
		for _, t := range ladder {
			cfg := base
			cfg.Mode = m.mode
			cfg.NumTasklets = t
			pts = append(pts, suitePoint{fig: m.fig, ep: point(cfg), anchor: true})
		}
	}
	if b.SupportsSIMT {
		for _, warps := range []int{1, 2, 4} {
			cfg := base
			cfg.Mode = config.ModeSIMT
			cfg.NumTasklets = warps * cfg.SIMTWidth // lanes, matching Space's expansion
			pts = append(pts, suitePoint{fig: "fig11", ep: point(cfg), anchor: true})
		}
	}

	// Timing probes at the widest anchor: these share the anchor's workload
	// signature and exercise the analytic scalings the weights absorb.
	probeT := ladder[len(ladder)-1]
	for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache} {
		anchor := base
		anchor.Mode = mode
		anchor.NumTasklets = probeT
		for _, ilp := range []string{"D", "R", "S", "F", "DRSF"} {
			pts = append(pts, suitePoint{fig: "fig12", ep: point(anchor.WithILP(ilp))})
		}
		for _, scaleUp := range []int{2, 4} {
			cfg := anchor
			cfg.LinkBytesPerCycle *= scaleUp
			pts = append(pts, suitePoint{fig: "fig13", ep: point(cfg)})
		}
		// Combined probe: the full ILP ladder on a wide link, so the fit sees
		// the features interacting rather than only one axis at a time.
		combo := anchor.WithILP("DRSF")
		combo.LinkBytesPerCycle *= 4
		pts = append(pts, suitePoint{fig: "fig12", ep: point(combo)})
	}
	return pts
}

// Fit simulates the calibration suite cycle-exactly, extracts workload
// signatures from the anchor runs, fits the model weights by non-negative
// least squares over every run, and derives the committed per-figure error
// bounds (measured maximum relative error plus deterministic 10% headroom,
// rounded up at 1e-4 granularity so a refit reproduces the artifact
// byte-for-byte). It returns the calibration and the observations it was
// fitted against.
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

	cal := &Calibration{
		Name:   name,
		Format: CalibrationFormat,
		Scales: []string{opts.Scale.String()},
	}
	obs := make([]Observation, len(plan))
	for i, sp := range plan {
		res := outs[i].Result
		if sp.anchor {
			cal.Signatures = append(cal.Signatures, signatureOf(res, opts.Scale))
		}
		obs[i] = Observation{
			Figure: sp.fig,
			Point:  sp.ep,
			Cycles: float64(res.Stats.Cycles),
			Total:  res.Report.Total(),
		}
	}
	sortSignatures(cal.Signatures)

	if err := fitWeights(cal, obs); err != nil {
		return nil, nil, err
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

// fitWeights fits the model parameters over the suite's observations and
// stores the result in cal.Weights. The issue-riding cover share CoverIssue
// enters the mem feature non-linearly, so it is chosen by a deterministic
// grid search (0 to 1 in steps of 0.05, lowest value wins ties); the linear
// weights at each candidate come from non-negative least squares over the
// relative-residual-normalized feature rows. Everything is closed-form or
// fixed-order, so refits are bit-reproducible.
func fitWeights(cal *Calibration, obs []Observation) error {
	est := &Estimator{cal: cal, sigs: make(map[sigKey]*Signature, len(cal.Signatures))}
	for i := range cal.Signatures {
		s := &cal.Signatures[i]
		est.sigs[s.key()] = s
	}
	sigs := make([]*Signature, len(obs))
	for i, o := range obs {
		sig, ok := est.lookup(o.Point)
		if !ok {
			return fmt.Errorf("estimate: fit: no anchor signature for probe %s/%s tasklets=%d",
				o.Point.Benchmark, o.Point.Config.Mode, o.Point.Config.NumTasklets)
		}
		sigs[i] = sig
	}

	// Stage 1: the linear weights, by non-negative least squares over the
	// ANCHOR rows only. Each row is normalized by its cycle count so the fit
	// minimizes squared RELATIVE residuals. At the anchor configuration the
	// slot features sum exactly to the measured cycles (the issue-slot
	// identity) and are invariant to CoverIssue, so this recovers weights at
	// or near 1 and keeps the ladder figures the explorer spends most of its
	// points on exact — probe-axis model error stays on the probe figures
	// instead of leaking into every estimate.
	anchors := map[string]bool{"fig5": true, "fig11": true, "fig15": true}
	var rows [][5]float64
	var targets []float64
	for i, o := range obs {
		if !anchors[o.Figure] {
			continue
		}
		x := features(sigs[i], o.Point.Config, 0)
		inv := 1 / math.Max(o.Cycles, 1)
		rows = append(rows, [5]float64{x.issue * inv, x.mem * inv, x.rev * inv, x.rf * inv, x.launches * inv})
		targets = append(targets, 1)
	}
	w := nnls(rows, targets)

	// Stage 2: the nonlinear cover share, by a deterministic grid search (0
	// to 1 in steps of 0.05, lowest value wins ties) minimizing the squared
	// relative residuals of the PROBE rows under the stage-1 weights.
	best := math.Inf(1)
	for hi := 0; hi <= 20; hi++ {
		h := float64(hi) / 20
		sse := 0.0
		for i, o := range obs {
			if anchors[o.Figure] {
				continue
			}
			x := features(sigs[i], o.Point.Config, h)
			pred := (w[0]*x.issue + w[1]*x.mem + w[2]*x.rev + w[3]*x.rf + w[4]*x.launches) / math.Max(o.Cycles, 1)
			sse += (pred - 1) * (pred - 1)
		}
		if sse < best {
			best = sse
			cal.Weights = Weights{Issue: w[0], Memory: w[1], Revolver: w[2], RegFile: w[3], Fixed: w[4], CoverIssue: h}
		}
	}
	return nil
}

// nnls solves min ‖X w − y‖² subject to w ≥ 0 with a deterministic
// active-set method on the normal equations: solve unconstrained, clamp the
// most negative weight to zero, repeat — at most one pass per feature, no
// randomness.
func nnls(rows [][5]float64, targets []float64) [5]float64 {
	const n = 5
	// Normal equations A w = b with A = XᵀX, b = Xᵀy.
	var A [n][n]float64
	var b [n]float64
	for r, row := range rows {
		for i := 0; i < n; i++ {
			b[i] += row[i] * targets[r]
			for j := 0; j < n; j++ {
				A[i][j] += row[i] * row[j]
			}
		}
	}

	free := [n]bool{true, true, true, true, true}
	var w [n]float64
	for iter := 0; iter <= n; iter++ {
		w = solveSubset(A, b, free)
		worst, worstV := -1, 0.0
		for i := 0; i < n; i++ {
			if free[i] && w[i] < worstV {
				worst, worstV = i, w[i]
			}
		}
		if worst < 0 {
			break
		}
		free[worst] = false
		w[worst] = 0
	}
	for i := 0; i < n; i++ {
		if w[i] < 0 { // numerical residue of a clamped solve
			w[i] = 0
		}
	}
	return w
}

// solveSubset solves A w = b restricted to the free coordinates (fixed ones
// are zero) by Gaussian elimination with partial pivoting. A singular
// sub-block yields zeros for its coordinates rather than an error — a fixed
// weight of zero is always feasible for NNLS.
func solveSubset(A [5][5]float64, b [5]float64, free [5]bool) [5]float64 {
	var idx []int
	for i := 0; i < 5; i++ {
		if free[i] {
			idx = append(idx, i)
		}
	}
	m := len(idx)
	var out [5]float64
	if m == 0 {
		return out
	}
	// Dense sub-system [M | v].
	M := make([][]float64, m)
	for r := 0; r < m; r++ {
		M[r] = make([]float64, m+1)
		for c := 0; c < m; c++ {
			M[r][c] = A[idx[r]][idx[c]]
		}
		M[r][m] = b[idx[r]]
	}
	for col := 0; col < m; col++ {
		piv := col
		for r := col + 1; r < m; r++ {
			if math.Abs(M[r][col]) > math.Abs(M[piv][col]) {
				piv = r
			}
		}
		M[col], M[piv] = M[piv], M[col]
		if math.Abs(M[col][col]) < 1e-12 {
			continue // singular direction: leave its weight at zero
		}
		inv := 1 / M[col][col]
		for c := col; c <= m; c++ {
			M[col][c] *= inv
		}
		for r := 0; r < m; r++ {
			if r == col || M[r][col] == 0 {
				continue
			}
			f := M[r][col]
			for c := col; c <= m; c++ {
				M[r][c] -= f * M[col][c]
			}
		}
	}
	for r := 0; r < m; r++ {
		if math.Abs(M[r][r]) >= 1e-12 {
			out[idx[r]] = M[r][m]
		}
	}
	return out
}

// FigureErrors evaluates the calibration against a set of cycle-exact
// observations: for each figure group, the maximum relative error over both
// the kernel-cycle and the end-to-end-time prediction.
func FigureErrors(cal *Calibration, obs []Observation) (map[string]float64, error) {
	est, err := New(cal, nil)
	if err != nil {
		return nil, err
	}
	errs := map[string]float64{}
	for _, o := range obs {
		e, err := est.Estimate(o.Point)
		if err != nil {
			return nil, err
		}
		relCycles := math.Abs(e.KernelCycles-o.Cycles) / math.Max(o.Cycles, 1)
		relTotal := math.Abs(e.TotalSeconds-o.Total) / math.Max(o.Total, 1e-12)
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
