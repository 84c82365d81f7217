package upim

import (
	"context"

	"upim/internal/estimate"
)

// Two-tier fidelity — the analytical fast path of the pathfinding
// methodology. An Estimator predicts a design point's kernel cycles,
// end-to-end time and energy in microseconds from a fitted
// CalibrationProfile, letting ExploreTiered triage a large design space
// before cycle-exact simulation validates the survivors. See
// internal/estimate and the ARCHITECTURE.md "Two-tier fidelity" section.

// CalibrationProfile is the versioned parameter set of the analytical
// estimator: fitted non-negative least-squares weights, the workload
// signature table, and the committed per-figure relative-error bounds CI
// re-checks (`make calibration-check`).
type CalibrationProfile = estimate.Calibration

// Estimator predicts performance and energy for design points under one
// calibration and one energy TechProfile; safe for concurrent use.
type Estimator = estimate.Estimator

// CalibrationObservation is one calibration-suite run: a simulation point
// tagged with the paper figure it probes plus its cycle-exact measurements.
type CalibrationObservation = estimate.Observation

// FitCalibrationOptions configure FitCalibration.
type FitCalibrationOptions = estimate.FitOptions

// LoadCalibration reads a calibration artifact from a JSON file. Loading is
// strict — unknown fields, format mismatches, negative coefficients and
// trailing content are all errors — because the artifact is machine-
// generated (`pathfind calibrate`), not hand-edited.
func LoadCalibration(path string) (*CalibrationProfile, error) { return estimate.LoadFile(path) }

// NewEstimator builds an estimator from a calibration (nil = the committed
// default) and an energy TechProfile (nil = the committed default). Use the
// same profile any energy/EDP goals are bound to — ExploreTiered enforces
// it.
func NewEstimator(cal *CalibrationProfile, prof *TechProfile) (*Estimator, error) {
	return estimate.New(cal, prof)
}

// FitCalibration simulates the calibration suite cycle-exactly, fits the
// estimator weights by non-negative least squares, and derives the
// per-figure error bounds — producing the artifact committed at
// internal/estimate/calibration/default.json. Deterministic: the same
// simulator and options reproduce the artifact byte-for-byte.
func FitCalibration(ctx context.Context, opts FitCalibrationOptions) (*CalibrationProfile, []CalibrationObservation, error) {
	return estimate.Fit(ctx, opts)
}

// CalibrationFigureErrors evaluates a calibration against cycle-exact
// observations: per figure group, the maximum relative error over kernel
// cycles and end-to-end time.
func CalibrationFigureErrors(cal *CalibrationProfile, obs []CalibrationObservation) (map[string]float64, error) {
	return estimate.FigureErrors(cal, obs)
}

// CheckCalibrationBounds verifies measured per-figure errors against the
// calibration's committed bounds — the `make calibration-check` gate.
func CheckCalibrationBounds(cal *CalibrationProfile, errs map[string]float64) error {
	return estimate.CheckBounds(cal, errs)
}
