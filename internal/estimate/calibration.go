package estimate

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"upim/internal/httpjson"
)

// CalibrationFormat versions the calibration schema AND the estimator model
// its bounds were measured for: bump it whenever predictCycles changes
// meaning, so a stale calibration artifact fails loudly instead of silently
// carrying bounds a different model earned.
const CalibrationFormat = 4

// FigureBound is one committed accuracy bound: the maximum relative error
// of the estimator against cycle-exact simulation over a calibration figure
// group (the probe points mirroring one paper figure's axis).
type FigureBound struct {
	Figure string `json:"figure"`
	// MaxRelErr bounds max(|est-actual|/actual) over both kernel cycles and
	// end-to-end time for every observation in the group, with 10% headroom
	// over the measured error (see Fit). CI fails when a rerun exceeds it.
	MaxRelErr float64 `json:"max_rel_err"`
}

// Calibration names the estimator's model and carries the per-figure error
// bounds measured for it. It is a committed, machine-generated artifact
// (calibration/default.json, regenerated by `pathfind calibrate`), not a
// hand-edited file — Load is therefore strict rather than override-style.
// It holds no workload data: an estimate projects from its anchor's
// simulated result (see AnchorOf).
type Calibration struct {
	// Name identifies the calibration in reports and store entries.
	Name string `json:"name"`
	// Format must equal CalibrationFormat.
	Format int           `json:"format"`
	Bounds []FigureBound `json:"bounds"`
}

//go:embed calibration/default.json
var calibrationFS embed.FS

var (
	defaultOnce sync.Once
	defaultCal  *Calibration
)

// Default returns a copy of the committed default calibration (see
// calibration/default.json).
func Default() *Calibration {
	defaultOnce.Do(func() {
		data, err := calibrationFS.ReadFile("calibration/default.json")
		if err != nil {
			panic("estimate: embedded default calibration missing: " + err.Error())
		}
		c, err := Load(bytes.NewReader(data))
		if err != nil {
			panic("estimate: embedded default calibration invalid: " + err.Error())
		}
		defaultCal = c
	})
	out := *defaultCal
	out.Bounds = append([]FigureBound(nil), defaultCal.Bounds...)
	return &out
}

// Load reads one complete calibration document. Unlike energy.TechProfile
// overrides, a calibration is machine-generated, so Load is strict: unknown
// fields, format mismatches, trailing content and negative bounds are all
// errors.
func Load(r io.Reader) (*Calibration, error) {
	// One JSON object per calibration file: trailing content means the file
	// is not the artifact `pathfind calibrate` wrote.
	c := &Calibration{}
	if err := httpjson.DecodeStrict(r, c); err != nil {
		return nil, fmt.Errorf("estimate: decoding calibration: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}

// Marshal renders the calibration in the canonical committed form (indented
// JSON with a trailing newline) — the byte layout `pathfind calibrate`
// writes and the drift check compares against.
func (c *Calibration) Marshal() ([]byte, error) {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("estimate: encoding calibration: %w", err)
	}
	return append(data, '\n'), nil
}

// Validate checks internal consistency: the declared format, a non-empty
// name, and named, duplicate-free, non-negative bounds.
func (c *Calibration) Validate() error {
	if c.Format != CalibrationFormat {
		return fmt.Errorf("estimate: calibration %q declares format %d, this estimator expects %d (regenerate with `pathfind calibrate`)",
			c.Name, c.Format, CalibrationFormat)
	}
	if c.Name == "" {
		return fmt.Errorf("estimate: calibration needs a name")
	}
	seenFig := map[string]bool{}
	for _, b := range c.Bounds {
		if b.Figure == "" {
			return fmt.Errorf("estimate: calibration %q: bound with empty figure name", c.Name)
		}
		if seenFig[b.Figure] {
			return fmt.Errorf("estimate: calibration %q: duplicate bound for %q", c.Name, b.Figure)
		}
		seenFig[b.Figure] = true
		if !(b.MaxRelErr >= 0) {
			return fmt.Errorf("estimate: calibration %q: bound %q is negative or NaN", c.Name, b.Figure)
		}
	}
	return nil
}
