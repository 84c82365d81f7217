package estimate

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
	"upim/internal/prim"
)

// anchorResult pairs an anchor point with its cycle-exact result.
type anchorResult struct {
	p   engine.Point
	res *prim.Result
}

var (
	suiteAnchorsOnce sync.Once
	suiteAnchorsRuns []anchorResult
	suiteAnchorsErr  error
)

// suiteAnchors simulates, once per test binary, the anchors of the tiny
// calibration suite of every benchmark: each (mode, tasklets) ladder point
// at the default timing, SIMT warps included.
func suiteAnchors(t *testing.T) []anchorResult {
	t.Helper()
	suiteAnchorsOnce.Do(func() {
		var pts []engine.Point
		for _, b := range prim.Benchmarks() {
			for _, sp := range suite(b, prim.ScaleTiny) {
				if a, err := AnchorOf(sp.ep); err == nil && a == sp.ep {
					pts = append(pts, sp.ep)
				}
			}
		}
		outs, err := engine.New(0).SweepAll(context.Background(), pts)
		if err != nil {
			suiteAnchorsErr = err
			return
		}
		for i, o := range outs {
			suiteAnchorsRuns = append(suiteAnchorsRuns, anchorResult{pts[i], o.Result})
		}
	})
	if suiteAnchorsErr != nil {
		t.Fatal(suiteAnchorsErr)
	}
	return suiteAnchorsRuns
}

func TestDefaultCalibration(t *testing.T) {
	cal := Default()
	if err := cal.Validate(); err != nil {
		t.Fatalf("committed default calibration invalid: %v", err)
	}
	if len(cal.Bounds) == 0 {
		t.Fatal("committed calibration has no bounds")
	}
	// Default returns a defensive copy: mutating it must not poison later calls.
	cal.Bounds[0].MaxRelErr = -1
	if err := Default().Validate(); err != nil {
		t.Fatalf("Default() shares state with a mutated copy: %v", err)
	}
}

// TestAnchorOf pins the anchor's definition: the five timing fields the
// model extrapolates over return to their defaults, and nothing else moves.
func TestAnchorOf(t *testing.T) {
	p := engine.Point{Benchmark: "VA", Config: config.Default().WithILP("DRSF"), DPUs: 1, Scale: prim.ScalePaper, Watchdog: 7}
	p.Config.LinkBytesPerCycle *= 4
	p.Config.NumTasklets = 3
	p.Config.Mode = config.ModeCache
	a, err := AnchorOf(p)
	if err != nil {
		t.Fatal(err)
	}
	want := p
	want.Config.FreqMHz, want.Config.LinkBytesPerCycle = config.Default().FreqMHz, config.Default().LinkBytesPerCycle
	want.Config.Forwarding, want.Config.UnifiedRF, want.Config.IssueWidth = false, false, 1
	if a != want {
		t.Fatalf("AnchorOf(%+v)\n = %+v\nwant %+v", p, a, want)
	}
	if again, _ := AnchorOf(a); again != a {
		t.Fatal("an anchor is not its own anchor")
	}
}

// TestAnchorExactness pins the issue-slot accounting identity: at its own
// anchor configuration, every suite anchor's prediction — the plain sum of
// its slot buckets — must equal the measured cycle count up to
// floating-point rounding.
func TestAnchorExactness(t *testing.T) {
	const bound = 1e-12
	est, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range suiteAnchors(t) {
		e := est.Project(a.p, a.res)
		cycles := float64(a.res.Stats.Cycles)
		rel := math.Abs(e.KernelCycles-cycles) / cycles
		if rel > bound {
			t.Errorf("%s/%s/t%d: anchor prediction %.1f vs measured %.0f cycles (rel err %.3g > %g)",
				a.p.Benchmark, a.p.Config.Mode, a.p.Config.NumTasklets, e.KernelCycles, cycles, rel, bound)
		}
	}
}

// TestSIMTLinkInvariant: the SIMT vector unit reaches the bank through the
// coalescer without crossing the MRAM<->WRAM link (the core and the energy
// model both route it so), so a SIMT estimate cannot depend on the link
// width.
func TestSIMTLinkInvariant(t *testing.T) {
	est, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, a := range suiteAnchors(t) {
		if a.p.Config.Mode != config.ModeSIMT {
			continue
		}
		n++
		p := a.p
		var want float64
		for _, link := range []int{1, 2, 4, 8} {
			p.Config.LinkBytesPerCycle = link
			e := est.Project(p, a.res)
			if link == 1 {
				want = e.KernelCycles
			} else if e.KernelCycles != want {
				t.Errorf("%s/simt/t%d: link x%d estimates %.0f cycles, link x1 %.0f",
					p.Benchmark, p.Config.NumTasklets, link, e.KernelCycles, want)
			}
		}
	}
	if n != 3 {
		t.Fatalf("the calibration suite has %d SIMT anchors, want 3", n)
	}
}

// TestEstimateDeterministic: an estimate is a pure function of the point —
// repeated calls agree, and the anchor Estimate simulates for itself is the
// run the suite recorded, so the memoised path and Project agree bit for
// bit.
func TestEstimateDeterministic(t *testing.T) {
	est, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a := suiteAnchors(t)[0]
	p := a.p
	p.Config = p.Config.WithILP("DRSF")
	p.Config.FreqMHz *= 2
	first, err := est.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	second, err := est.Estimate(p)
	if err != nil {
		t.Fatal(err)
	}
	if *first != *second {
		t.Fatalf("estimates differ across calls:\n%+v\n%+v", first, second)
	}
	if projected := est.Project(p, a.res); *projected != *first {
		t.Fatalf("Estimate and Project disagree:\n%+v\n%+v", first, projected)
	}
	if first.KernelCycles < 1 || first.TotalSeconds <= 0 || first.MicroJoules() <= 0 {
		t.Fatalf("degenerate estimate: %+v", first)
	}
}

// TestEstimateConcurrent: goroutines sharing one estimator and asking for
// the same missing anchors at once get the estimates a lone caller gets, and
// each anchor simulates once.
func TestEstimateConcurrent(t *testing.T) {
	var pts []engine.Point
	for _, freq := range []int{350, 700} {
		for _, tasklets := range []int{1, 4} {
			p := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
			p.Config.FreqMHz, p.Config.NumTasklets = freq, tasklets
			pts = append(pts, p)
		}
	}
	lone, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]Estimate, len(pts))
	for i, p := range pts {
		e, err := lone.Estimate(p)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = *e
	}
	shared, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range pts {
				p := pts[(i+g)%len(pts)]
				e, err := shared.Estimate(p)
				if err != nil {
					t.Error(err)
					return
				}
				if *e != want[(i+g)%len(pts)] {
					t.Errorf("goroutine %d: %s tasklets=%d freq=%d estimates %+v, a lone caller %+v",
						g, p.Benchmark, p.Config.NumTasklets, p.Config.FreqMHz, e, want[(i+g)%len(pts)])
				}
			}
		}()
	}
	wg.Wait()
	if n := len(shared.anchors); n != 2 {
		t.Fatalf("the shared estimator holds %d anchors, want the 2 of tasklets 1 and 4", n)
	}
}

// TestEstimateRefusals: a point the model does not cover fails with an
// error that says why, and any single-DPU UPMEM point has an anchor —
// including a tasklet count no calibration ever ran.
func TestEstimateRefusals(t *testing.T) {
	est, err := New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	va := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}

	hbm, err := machine.Named(machine.ArchHBMPIM)
	if err != nil {
		t.Fatal(err)
	}
	p := va
	p.Machine = hbm
	if _, err := est.Estimate(p); !errors.Is(err, prim.ErrUnsupportedArch) {
		t.Fatalf("hbm-pim point: want ErrUnsupportedArch, got %v", err)
	}
	p = va
	p.DPUs = 2
	if _, err := est.Estimate(p); !errors.Is(err, ErrMultiDPU) {
		t.Fatalf("2-DPU point: want ErrMultiDPU, got %v", err)
	}
	p = va
	p.Benchmark = "no-such-benchmark"
	if _, err := est.Estimate(p); !errors.Is(err, prim.ErrUnknownBenchmark) {
		t.Fatalf("unknown benchmark: want its anchor's ErrUnknownBenchmark, got %v", err)
	}
	p = va
	p.Config.NumTasklets = 3
	if _, err := est.Estimate(p); err != nil {
		t.Fatalf("tasklets=3: %v", err)
	}
}

// TestRefitReproducesCommitted is the in-tree mirror of the CI
// calibration-check gate: a from-scratch refit of the full suite must
// reproduce the committed artifact byte-for-byte (fit determinism + no
// drift), and its measured per-figure errors must stay within the committed
// bounds. Every suite anchor an estimator simulates for itself projects
// the same estimate as the anchor run the refit recorded.
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

	est, err := New(committed, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range obs {
		if a, _ := AnchorOf(o.Point); a != o.Point {
			continue
		}
		got, err := est.Estimate(o.Point)
		if err != nil {
			t.Fatal(err)
		}
		if want := est.Project(o.Point, o.Result); *got != *want {
			t.Fatalf("anchor %s/%s/t%d: the estimator's own run estimates\n%+v\nthe refit's\n%+v",
				o.Point.Benchmark, o.Point.Config.Mode, o.Point.Config.NumTasklets, got, want)
		}
	}
}

// TestFigureErrorsNeedsAnchors: a probe whose anchor is not among the
// observations is an error, not a silent simulation.
func TestFigureErrorsNeedsAnchors(t *testing.T) {
	a := suiteAnchors(t)[0]
	probe := a.p
	probe.Config = probe.Config.WithILP("D")
	_, err := FigureErrors(Default(), []Observation{{Figure: "fig12", Point: probe, Result: a.res}})
	if err == nil || !strings.Contains(err.Error(), "no anchor") {
		t.Fatalf("probe without its anchor: %v", err)
	}
	if _, err := FigureErrors(Default(), []Observation{{Figure: "fig5", Point: a.p, Result: a.res}}); err != nil {
		t.Fatal(err)
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
