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
	"upim/internal/httpjson"
	"upim/internal/isa"
	"upim/internal/prim"
	"upim/internal/stats"
)

// CalibrationFormat versions the calibration schema AND the estimator model
// the weights were fitted for: bump it whenever the feature construction in
// features() changes meaning, so a stale calibration artifact fails loudly
// instead of silently mispredicting under new semantics.
const CalibrationFormat = 1

// Signature is one workload's counter record at a cycle-exact anchor run:
// the per-(benchmark, mode, tasklets, scale, DPUs) invariants the estimator
// extrapolates from. All counters are rank aggregates (anchors run on one
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

	// Issue-slot breakdown (slots; the anchor issues one slot per cycle, so
	// Issued+IdleMemory+IdleRevolver+IdleRF == Cycles at the anchor).
	Cycles       float64 `json:"cycles"`
	Instructions float64 `json:"instructions"`
	VectorIssues float64 `json:"vector_issues"`
	Issued       float64 `json:"issued"`
	IdleMemory   float64 `json:"idle_memory"`
	IdleRevolver float64 `json:"idle_revolver"`
	IdleRF       float64 `json:"idle_rf"`

	// Mix is the per-class instruction count (isa.Class order, the Fig 9
	// buckets) — it weights the forwarding-latency model and prices pipeline
	// energy.
	Mix []float64 `json:"mix"`

	// Event counters the energy model reads (see internal/energy).
	RFReads          float64 `json:"rf_reads"`
	RFWrites         float64 `json:"rf_writes"`
	WRAMReads        float64 `json:"wram_reads"`
	WRAMWrites       float64 `json:"wram_writes"`
	DMAs             float64 `json:"dmas"`
	DMABytes         float64 `json:"dma_bytes"`
	DRAMBytesRead    float64 `json:"dram_bytes_read"`
	DRAMBytesWritten float64 `json:"dram_bytes_written"`
	DRAMRowHits      float64 `json:"dram_row_hits"`
	DRAMRowMisses    float64 `json:"dram_row_misses"`
	DRAMRowEmpty     float64 `json:"dram_row_empty"`
	DRAMRefreshes    float64 `json:"dram_refreshes"`
	ICacheAccesses   float64 `json:"icache_accesses"`
	DCacheAccesses   float64 `json:"dcache_accesses"`

	// TLPHist is the issuable-thread histogram (stats.TLPBins Fig 7 bins) —
	// it models how much an issue-width increase can actually exploit.
	TLPHist     []float64 `json:"tlp_hist"`
	AvgIssuable float64   `json:"avg_issuable"`
	Launches    float64   `json:"launches"`

	// Host-side transfer model: volumes and the modeled transfer time, which
	// is invariant across the core-side timing axes.
	BytesIn         float64 `json:"bytes_in"`
	BytesOut        float64 `json:"bytes_out"`
	KernelSeconds   float64 `json:"kernel_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
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

// SignatureOf extracts a workload signature from a verified anchor result.
func SignatureOf(res *prim.Result, scale prim.Scale) Signature {
	st := &res.Stats
	sig := Signature{
		Benchmark: res.Benchmark,
		Mode:      res.Config.Mode.String(),
		Tasklets:  res.Config.NumTasklets,
		Scale:     scale.String(),
		DPUs:      res.DPUs,

		FreqMHz:           res.Config.FreqMHz,
		LinkBytesPerCycle: res.Config.LinkBytesPerCycle,

		Cycles:       float64(st.Cycles),
		Instructions: float64(st.Instructions),
		VectorIssues: float64(st.VectorIssues),
		Issued:       st.Issued,
		IdleMemory:   st.Idle[stats.IdleMemory],
		IdleRevolver: st.Idle[stats.IdleRevolver],
		IdleRF:       st.Idle[stats.IdleRF],

		Mix: make([]float64, isa.NumClasses),

		RFReads:          float64(st.RFReads),
		RFWrites:         float64(st.RFWrites),
		WRAMReads:        float64(st.WRAMReads),
		WRAMWrites:       float64(st.WRAMWrites),
		DMAs:             float64(st.DMAs),
		DMABytes:         float64(st.DMABytes),
		DRAMBytesRead:    float64(st.DRAM.BytesRead),
		DRAMBytesWritten: float64(st.DRAM.BytesWritten),
		DRAMRowHits:      float64(st.DRAM.RowHits),
		DRAMRowMisses:    float64(st.DRAM.RowMisses),
		DRAMRowEmpty:     float64(st.DRAM.RowEmpty),
		DRAMRefreshes:    float64(st.DRAM.Refreshes),
		ICacheAccesses:   float64(st.ICache.Accesses),
		DCacheAccesses:   float64(st.DCache.Accesses),

		TLPHist:     make([]float64, stats.TLPBins),
		AvgIssuable: st.AvgIssuable(),
		Launches:    float64(res.Report.Launches),

		BytesIn:         float64(res.Report.BytesIn),
		BytesOut:        float64(res.Report.BytesOut),
		KernelSeconds:   res.Report.KernelSeconds,
		TransferSeconds: res.Report.Total() - res.Report.KernelSeconds,
	}
	for c := 0; c < isa.NumClasses; c++ {
		sig.Mix[c] = float64(st.Mix[c])
	}
	for b := 0; b < stats.TLPBins; b++ {
		sig.TLPHist[b] = float64(st.TLPHist[b])
	}
	return sig
}

// Weights are the globally fitted non-negative least-squares coefficients
// combining the analytically transformed slot features into a cycle
// prediction. An ideal decomposition would make every weight 1 and Fixed 0
// (the features sum to the anchor's exact cycle count at the anchor
// configuration); the fit deviates to absorb overlap between the buckets on
// the probe configurations.
type Weights struct {
	// Issue scales the issued-slot feature (instructions / issue width).
	Issue float64 `json:"issue"`
	// Memory scales the memory-idle feature (link/DRAM wait slots,
	// frequency- and link-width-scaled).
	Memory float64 `json:"memory"`
	// Revolver scales the dependency-wait feature (revolver or forwarding
	// distance).
	Revolver float64 `json:"revolver"`
	// RegFile scales the odd/even RF structural-hazard feature (zero under
	// the unified register file).
	RegFile float64 `json:"rf"`
	// Fixed is a per-launch overhead in cycles.
	Fixed float64 `json:"fixed"`
	// CoverIssue is the fitted fraction of the anchor's memory-latency
	// hiding that rides on issue work: the anchor hides its whole link
	// occupancy behind other threads' issuing, and when a wider issue slot
	// compresses the issue cycles there is proportionally less work to hide
	// behind. 0 keeps the cover fixed; 1 scales it fully with the issue
	// feature.
	CoverIssue float64 `json:"mem_cover_issue"`
}

// FigureBound is one committed accuracy bound: the maximum relative error
// of the estimator against cycle-exact simulation over a calibration figure
// group (the probe points mirroring one paper figure's axis).
type FigureBound struct {
	Figure string `json:"figure"`
	// MaxRelErr bounds max(|est-actual|/actual) over both kernel cycles and
	// end-to-end time for every observation in the group, with 10% headroom
	// over the fitted residual (see Fit). CI fails when a refit exceeds it.
	MaxRelErr float64 `json:"max_rel_err"`
}

// Calibration is the versioned analytical-model parameter set: fitted
// weights, the workload signature table, and the per-figure error bounds the
// fit measured. It is a committed, machine-generated artifact
// (calibration/default.json, regenerated by `pathfind calibrate`), not a
// hand-edited file — Load is therefore strict rather than override-style.
type Calibration struct {
	// Name identifies the calibration in reports and store entries.
	Name string `json:"name"`
	// Format must equal CalibrationFormat.
	Format int `json:"format"`
	// Scales lists the dataset scales the signature table covers.
	Scales []string `json:"scales"`

	Weights    Weights       `json:"weights"`
	Bounds     []FigureBound `json:"bounds"`
	Signatures []Signature   `json:"signatures"`
}

//go:embed calibration/default.json
var calibrationFS embed.FS

var (
	defaultOnce sync.Once
	defaultCal  *Calibration
)

// Default returns a copy of the committed default calibration (fitted
// against the tiny-scale reference workloads; see calibration/default.json).
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

// ResolveCalibration resolves a nil calibration to the committed default.
func ResolveCalibration(c *Calibration) *Calibration {
	if c == nil {
		return Default()
	}
	return c
}

func (c *Calibration) clone() *Calibration {
	out := *c
	out.Scales = append([]string(nil), c.Scales...)
	out.Bounds = append([]FigureBound(nil), c.Bounds...)
	out.Signatures = make([]Signature, len(c.Signatures))
	for i := range c.Signatures {
		out.Signatures[i] = c.Signatures[i]
		out.Signatures[i].Mix = append([]float64(nil), c.Signatures[i].Mix...)
		out.Signatures[i].TLPHist = append([]float64(nil), c.Signatures[i].TLPHist...)
	}
	return &out
}

// Load reads one complete calibration document. Unlike energy.TechProfile
// overrides, a calibration is machine-generated, so Load is strict: unknown
// fields, format mismatches, trailing content, negative coefficients and
// malformed signatures are all errors.
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
// name, non-negative weights and bounds, and well-formed, duplicate-free
// signatures.
func (c *Calibration) Validate() error {
	if c.Format != CalibrationFormat {
		return fmt.Errorf("estimate: calibration %q declares format %d, this estimator expects %d (regenerate with `pathfind calibrate`)",
			c.Name, c.Format, CalibrationFormat)
	}
	if c.Name == "" {
		return fmt.Errorf("estimate: calibration needs a name")
	}
	for _, w := range []struct {
		name string
		v    float64
	}{
		{"issue", c.Weights.Issue}, {"memory", c.Weights.Memory},
		{"revolver", c.Weights.Revolver}, {"rf", c.Weights.RegFile},
		{"fixed", c.Weights.Fixed},
	} {
		if w.v < 0 || w.v != w.v {
			return fmt.Errorf("estimate: calibration %q: weight %q is negative or NaN (the fit is non-negative by construction)", c.Name, w.name)
		}
	}
	if !(c.Weights.CoverIssue >= 0 && c.Weights.CoverIssue <= 1) {
		return fmt.Errorf("estimate: calibration %q: mem_cover_issue %v outside [0, 1]", c.Name, c.Weights.CoverIssue)
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
	if len(s.Mix) != isa.NumClasses {
		return fmt.Errorf("mix has %d classes, want %d", len(s.Mix), isa.NumClasses)
	}
	if len(s.TLPHist) != stats.TLPBins {
		return fmt.Errorf("tlp_hist has %d bins, want %d", len(s.TLPHist), stats.TLPBins)
	}
	for b, v := range s.TLPHist {
		if v < 0 || v != v {
			return fmt.Errorf("tlp_hist bin %d is negative or NaN", b)
		}
	}
	if s.Cycles < 1 {
		return fmt.Errorf("anchor cycle count must be at least 1")
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"instructions", s.Instructions}, {"vector_issues", s.VectorIssues},
		{"issued", s.Issued}, {"idle_memory", s.IdleMemory},
		{"idle_revolver", s.IdleRevolver}, {"idle_rf", s.IdleRF},
		{"rf_reads", s.RFReads}, {"rf_writes", s.RFWrites},
		{"wram_reads", s.WRAMReads}, {"wram_writes", s.WRAMWrites},
		{"dmas", s.DMAs}, {"dma_bytes", s.DMABytes},
		{"dram_bytes_read", s.DRAMBytesRead}, {"dram_bytes_written", s.DRAMBytesWritten},
		{"dram_row_hits", s.DRAMRowHits}, {"dram_row_misses", s.DRAMRowMisses},
		{"dram_row_empty", s.DRAMRowEmpty}, {"dram_refreshes", s.DRAMRefreshes},
		{"icache_accesses", s.ICacheAccesses}, {"dcache_accesses", s.DCacheAccesses},
		{"avg_issuable", s.AvgIssuable}, {"launches", s.Launches},
		{"bytes_in", s.BytesIn}, {"bytes_out", s.BytesOut},
		{"kernel_seconds", s.KernelSeconds}, {"transfer_seconds", s.TransferSeconds},
	} {
		if f.v < 0 || f.v != f.v {
			return fmt.Errorf("%s is negative or NaN", f.name)
		}
	}
	for c, v := range s.Mix {
		if v < 0 || v != v {
			return fmt.Errorf("mix class %d is negative or NaN", c)
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
