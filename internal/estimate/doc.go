// Package estimate is the analytical fast path of the two-tier fidelity
// story: a roofline/interval-style performance and energy estimator that
// predicts a design point's kernel cycles, end-to-end time and joules in
// microseconds instead of simulating it — the triage stage that makes
// million-point design-space explorations tractable.
//
// The model projects every point from its anchor (AnchorOf): the same
// point with the timing fields it extrapolates over — frequency, MRAM-link
// width, forwarding, the unified register file and issue width — at their
// config.Default() values. An anchor is an ordinary simulation point at the
// point's own scale, and its cycle-exact prim.Result supplies the stats.DPU
// and host.Report the model reads. Project transforms the anchor's
// issue/idle slot buckets (the paper's Fig 6 breakdown) analytically across
// the timing axes and sums them: there are no fitted weights, so at an
// anchor the prediction is the measured cycle count up to rounding. Energy
// reuses internal/energy's linear event model over the anchor's counters
// with the predicted cycle count, so the estimator and the simulator price
// events identically. The two-tier explorer resolves the anchors through
// its store before triage; a bare Estimator simulates an anchor the first
// time a point needs it and keeps the result.
//
// Calibration is a versioned, committed JSON artifact
// (calibration/default.json) that names the model and holds its bounds:
// Fit simulates a tiny-scale calibration suite (anchor ladders plus
// ILP/link probes at every anchor, mirroring the paper's figures) and
// measures per-figure relative-error bounds that CI re-checks on every
// change (`make calibration-check`). Nothing is fitted to the probes, so
// those bounds are held-out validation errors — the estimator's accuracy is
// itself a regression-tested artifact, following the "cheap analytical
// triage, detailed simulation validates the survivors" methodology of the
// PIM design-space-exploration literature.
package estimate
