// Package estimate is the analytical fast path of the two-tier fidelity
// story: a calibrated roofline/interval-style performance and energy
// estimator that predicts a design point's kernel cycles, end-to-end time
// and joules in microseconds instead of simulating it — the triage stage
// that makes million-point design-space explorations tractable.
//
// The model works from workload signatures: per-(benchmark, mode, tasklets,
// scale, DPUs) records of one cycle-exact anchor run each, holding the
// run's stats.DPU and host.Report exactly as the simulator wrote them.
// Estimating a point transforms the anchor's issue/idle slot buckets
// analytically across the timing axes (frequency, MRAM-link width, the ILP
// feature ladder, issue width) and combines them under globally fitted
// non-negative least-squares weights; energy reuses internal/energy's linear
// event model over the anchor's counters with the predicted cycle count, so
// the estimator and the simulator price events identically.
//
// Calibration is a versioned, committed JSON artifact
// (calibration/default.json): Fit simulates a tiny-scale calibration suite
// (anchor ladders plus ILP/link/frequency probes mirroring the paper's
// figures), fits the weights, and records per-figure relative-error bounds
// that CI re-checks on every change (`make calibration-check`) — the
// estimator's accuracy is itself a regression-tested artifact, following the
// "cheap analytical triage, detailed simulation validates the survivors"
// methodology of the PIM design-space-exploration literature.
package estimate
