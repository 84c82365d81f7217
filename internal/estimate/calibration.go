package estimate

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/httpjson"
	"upim/internal/prim"
	"upim/internal/stats"
)

// CalibrationFormat versions the calibration schema AND the estimator model
// its bounds were measured for: bump it whenever predictCycles changes
// meaning, so a stale calibration artifact fails loudly instead of silently
// carrying bounds a different model earned.
const CalibrationFormat = 3

// Signature is one workload's record at a cycle-exact anchor run: the
// per-(benchmark, mode, tasklets, scale, DPUs) invariants the estimator
// extrapolates from. The counters are rank aggregates (anchors run on one
// DPU, so aggregate == per-DPU).
type Signature struct {
	// Identity — the exact-match lookup key of the signature.
	Benchmark string `json:"benchmark"`
	Mode      string `json:"mode"`
	Tasklets  int    `json:"tasklets"` // config.NumTasklets (lanes under SIMT)
	Scale     string `json:"scale"`
	DPUs      int    `json:"dpus"`

	// Anchor configuration the counters were captured under. The estimator
	// scales idle buckets relative to these, so they are part of the record
	// rather than assumed.
	FreqMHz           int `json:"freq_mhz"`
	LinkBytesPerCycle int `json:"link_bytes_per_cycle"`

	// Stats is the anchor's counter record exactly as the simulator wrote
	// it: the issue-slot breakdown (the anchor issues one slot per cycle, so
	// Issued plus the Idle buckets == Cycles), the Fig 9 instruction mix that
	// weights the forwarding-latency model, the Fig 7 issuable-thread
	// histogram that bounds what a wider issue slot can exploit, and the
	// event counters the energy model prices.
	Stats stats.DPU `json:"stats"`
	// Report is the anchor's host-side model: launches, transfer volumes and
	// the per-phase transfer time, which is invariant across the core-side
	// timing axes.
	Report host.Report `json:"report"`
}

// key returns the exact-match lookup identity.
func (s *Signature) key() sigKey {
	return sigKey{bench: s.Benchmark, mode: s.Mode, tasklets: s.Tasklets, scale: s.Scale, dpus: s.DPUs}
}

type sigKey struct {
	bench, mode string
	tasklets    int
	scale       string
	dpus        int
}

// signatureOf extracts a workload signature from a verified anchor result.
func signatureOf(res *prim.Result, scale prim.Scale) Signature {
	return Signature{
		Benchmark:         res.Benchmark,
		Mode:              res.Config.Mode.String(),
		Tasklets:          res.Config.NumTasklets,
		Scale:             scale.String(),
		DPUs:              res.DPUs,
		FreqMHz:           res.Config.FreqMHz,
		LinkBytesPerCycle: res.Config.LinkBytesPerCycle,
		Stats:             res.Stats,
		Report:            res.Report,
	}
}

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

// Calibration is the versioned analytical-model parameter set: the workload
// signature table and the per-figure error bounds measured against it. It is a committed, machine-generated artifact
// (calibration/default.json, regenerated by `pathfind calibrate`), not a
// hand-edited file — Load is therefore strict rather than override-style.
type Calibration struct {
	// Name identifies the calibration in reports and store entries.
	Name string `json:"name"`
	// Format must equal CalibrationFormat.
	Format int `json:"format"`
	// Scales lists the dataset scales the signature table covers.
	Scales []string `json:"scales"`

	Bounds     []FigureBound `json:"bounds"`
	Signatures []Signature   `json:"signatures"`
}

//go:embed calibration/default.json
var calibrationFS embed.FS

var (
	defaultOnce sync.Once
	defaultCal  *Calibration
)

// Default returns a copy of the committed default calibration (recorded
// from the tiny-scale reference workloads; see calibration/default.json).
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
	return defaultCal.clone()
}

func (c *Calibration) clone() *Calibration {
	out := *c
	out.Scales = append([]string(nil), c.Scales...)
	out.Bounds = append([]FigureBound(nil), c.Bounds...)
	out.Signatures = append([]Signature(nil), c.Signatures...)
	for i := range out.Signatures {
		st := &out.Signatures[i].Stats
		st.Timeline = append([]float32(nil), st.Timeline...)
	}
	return &out
}

// Load reads one complete calibration document. Unlike energy.TechProfile
// overrides, a calibration is machine-generated, so Load is strict: unknown
// fields, format mismatches, trailing content, negative bounds and malformed
// signatures are all errors.
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

// LoadFile reads a calibration from a JSON file (see Load).
func LoadFile(path string) (*Calibration, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("estimate: %w", err)
	}
	defer f.Close()
	c, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (calibration %s)", err, path)
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
// name, non-negative bounds, and well-formed, duplicate-free signatures.
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
	if len(c.Signatures) == 0 {
		return fmt.Errorf("estimate: calibration %q has no workload signatures", c.Name)
	}
	seen := map[sigKey]bool{}
	for i := range c.Signatures {
		s := &c.Signatures[i]
		if err := s.validate(); err != nil {
			return fmt.Errorf("estimate: calibration %q: signature %d (%s/%s/t%d): %w",
				c.Name, i, s.Benchmark, s.Mode, s.Tasklets, err)
		}
		if seen[s.key()] {
			return fmt.Errorf("estimate: calibration %q: duplicate signature for %s/%s tasklets=%d scale=%s dpus=%d",
				c.Name, s.Benchmark, s.Mode, s.Tasklets, s.Scale, s.DPUs)
		}
		seen[s.key()] = true
	}
	return nil
}

func (s *Signature) validate() error {
	if _, err := config.ParseMode(s.Mode); err != nil {
		return err
	}
	if s.Benchmark == "" {
		return fmt.Errorf("empty benchmark name")
	}
	if s.Tasklets < 1 || s.DPUs < 1 {
		return fmt.Errorf("tasklets and dpus must be positive")
	}
	if s.Scale == "" {
		return fmt.Errorf("empty scale")
	}
	if s.FreqMHz <= 0 || s.LinkBytesPerCycle <= 0 {
		return fmt.Errorf("anchor frequency and link width must be positive")
	}
	if s.Stats.Cycles < 1 {
		return fmt.Errorf("anchor cycle count must be at least 1")
	}
	if s.Report.Launches < 0 {
		return fmt.Errorf("launch count is negative")
	}
	// The unsigned counters cannot be negative; the slot buckets and the
	// phase seconds are floats and can.
	st, r := &s.Stats, &s.Report
	for _, f := range []struct {
		name string
		vs   []float64
	}{
		{"IssueSlots", []float64{st.IssueSlots}}, {"Issued", []float64{st.Issued}}, {"Idle", st.Idle[:]},
		{"KernelSeconds", []float64{r.KernelSeconds}}, {"TransferSeconds", r.TransferSeconds[:]},
	} {
		for _, v := range f.vs {
			if !(v >= 0) {
				return fmt.Errorf("%s is negative or NaN", f.name)
			}
		}
	}
	return nil
}

// sortSignatures puts the signature table in the canonical committed order.
func sortSignatures(sigs []Signature) {
	sort.Slice(sigs, func(i, j int) bool {
		a, b := &sigs[i], &sigs[j]
		if a.Benchmark != b.Benchmark {
			return a.Benchmark < b.Benchmark
		}
		if a.Mode != b.Mode {
			return a.Mode < b.Mode
		}
		if a.Scale != b.Scale {
			return a.Scale < b.Scale
		}
		if a.DPUs != b.DPUs {
			return a.DPUs < b.DPUs
		}
		return a.Tasklets < b.Tasklets
	})
}
