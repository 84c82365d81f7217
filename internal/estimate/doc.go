// Package estimate is the analytical fast path of the two-tier fidelity
// story: a roofline/interval-style performance and energy estimator that
// predicts a design point's kernel cycles, end-to-end time and joules in
// microseconds instead of simulating it — the triage stage that makes
// million-point design-space explorations tractable.
//
// The model works from workload signatures: per-(benchmark, mode, tasklets,
// scale, DPUs) records of one cycle-exact anchor run each, holding the
// run's stats.DPU and host.Report exactly as the simulator wrote them.
// Estimating a point transforms the anchor's issue/idle slot buckets (the
// paper's Fig 6 breakdown) analytically across the timing axes (frequency,
// MRAM-link width, the ILP feature ladder, issue width) and sums them: there
// are no fitted weights, so at an anchor the prediction is the measured
// cycle count up to rounding. Energy reuses internal/energy's linear event
// model over the anchor's counters with the predicted cycle count, so the
// estimator and the simulator price events identically.
//
// Calibration is a versioned, committed JSON artifact
// (calibration/default.json): Fit simulates a tiny-scale calibration suite
// (anchor ladders plus ILP/link probes at every anchor, mirroring the
// paper's figures), records the signatures, and measures per-figure
// relative-error bounds that CI re-checks on every change (`make
// calibration-check`). Nothing is fitted to the probes, so those bounds are
// held-out validation errors — the estimator's accuracy is itself a
// regression-tested artifact, following the "cheap analytical triage,
// detailed simulation validates the survivors" methodology of the PIM
// design-space-exploration literature.
package estimate
