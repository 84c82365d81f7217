package energy

import (
	"bytes"
	"embed"
	"fmt"
	"io"
	"os"
	"sync"

	"upim/internal/httpjson"
	"upim/internal/isa"
)

// ProfileFormat versions the TechProfile schema. Load rejects profiles
// declaring a different format, so a stale profile file fails loudly
// instead of silently zeroing new components.
const ProfileFormat = 1

// classKeys are the short, stable JSON keys profiles use for the per-class
// pipeline energies, aligned with isa.Class (the Fig 9 mix buckets).
var classKeys = [isa.NumClasses]string{
	"arith", "arith+branch", "mul/div", "ld/st", "dma", "sync", "etc",
}

// ClassKey returns the profile JSON key of an instruction-mix class.
func ClassKey(c isa.Class) string {
	if int(c) < len(classKeys) {
		return classKeys[c]
	}
	return fmt.Sprintf("class?%d", uint8(c))
}

// TechProfile is the versioned per-event energy parameter set. All energies
// are picojoules per event (or per byte where named so); leakage is a static
// power in milliwatts integrated over each DPU's kernel cycles. The zero
// value is not meaningful — start from Default and override.
//
// The committed default (profiles/default.json) carries illustrative
// 2x-nm-DRAM-process magnitudes chosen for plausible relative weight between
// components, not vendor-measured values; calibrating against hardware
// power rails means committing a new named profile, not editing code.
type TechProfile struct {
	// Name identifies the profile in reports and artifact tables.
	Name string `json:"name"`
	// Format must equal ProfileFormat.
	Format int `json:"format"`

	// PipelinePJ is the per-issue pipeline energy by instruction-mix class,
	// keyed by ClassKey ("arith", "mul/div", ...). Under SIMT it is charged
	// per lane-instruction, matching how stats.DPU.Mix counts.
	PipelinePJ map[string]float64 `json:"pipeline_pj"`

	// Register file, per architectural GPR access (stats rf_reads/rf_writes).
	RFReadPJ  float64 `json:"rf_read_pj"`
	RFWritePJ float64 `json:"rf_write_pj"`

	// Scratchpads: WRAM per load/store access, IRAM per instruction fetch.
	WRAMReadPJ  float64 `json:"wram_read_pj"`
	WRAMWritePJ float64 `json:"wram_write_pj"`
	IRAMReadPJ  float64 `json:"iram_read_pj"`

	// LinkPJPerByte is the MRAM<->WRAM datapath energy per byte moved
	// (DMA traffic under the scratchpad model, cache fills under the cache
	// model).
	LinkPJPerByte float64 `json:"link_pj_per_byte"`

	// DRAM bank events: per row activate, per precharge, per byte
	// read/written at the sense amps, per refresh.
	DRAMActivatePJ     float64 `json:"dram_activate_pj"`
	DRAMPrechargePJ    float64 `json:"dram_precharge_pj"`
	DRAMReadPJPerByte  float64 `json:"dram_read_pj_per_byte"`
	DRAMWritePJPerByte float64 `json:"dram_write_pj_per_byte"`
	DRAMRefreshPJ      float64 `json:"dram_refresh_pj"`

	// Cache arrays, per tag/data lookup (stats icache/dcache_accesses).
	ICacheAccessPJ float64 `json:"icache_access_pj"`
	DCacheAccessPJ float64 `json:"dcache_access_pj"`

	// HostLinkPJPerByte is the CPU<->DPU channel energy per byte, applied to
	// host.Report.BytesIn + BytesOut.
	HostLinkPJPerByte float64 `json:"host_link_pj_per_byte"`

	// LeakageMW is the per-DPU static power in milliwatts, integrated over
	// each DPU's own kernel cycles at its configured frequency.
	LeakageMW float64 `json:"leakage_mw"`
}

//go:embed profiles/*.json
var profileFS embed.FS

// The committed defaults, parsed and validated once. Every nil-profile
// pricing call reads them in place, so nothing may write through these
// pointers: Default and DefaultFor hand out copies for callers that mutate.
var (
	upmemDefault  = sync.OnceValue(func() *TechProfile { return embedded("profiles/default.json") })
	hbmpimDefault = sync.OnceValue(func() *TechProfile { return embedded("profiles/hbmpim.json") })
)

// embedded parses and validates the committed profile at path.
func embedded(path string) *TechProfile {
	data, err := profileFS.ReadFile(path)
	if err != nil {
		panic("energy: embedded profile " + path + " missing: " + err.Error())
	}
	p := &TechProfile{PipelinePJ: map[string]float64{}}
	if err := httpjson.DecodeStrict(bytes.NewReader(data), p); err != nil {
		panic("energy: embedded profile " + path + " invalid: " + err.Error())
	}
	if err := p.Validate(); err != nil {
		panic("energy: embedded profile " + path + " invalid: " + err.Error())
	}
	return p
}

// Default returns a copy of the committed default profile. Mutating the copy
// is safe; the embedded original is parsed once and shared, read-only, by
// ResolveProfile and ResolveProfileFor.
func Default() *TechProfile { return upmemDefault().clone() }

// DefaultFor returns a copy of the committed default profile for an
// architecture backend (see ResolveProfileFor for which one).
func DefaultFor(arch string) *TechProfile { return ResolveProfileFor(nil, arch).clone() }

// ResolveProfile resolves a nil profile to the committed default — the
// convention every energy entry point follows, so callers can plumb an
// optional *TechProfile straight through. The default is the shared,
// read-only original, not a copy: price with it, never write to it.
func ResolveProfile(p *TechProfile) *TechProfile { return ResolveProfileFor(p, "") }

// ResolveProfileFor is ResolveProfile for a result of an architecture
// backend: a nil p resolves to the UPMEM profile for "" or "upmem" (results
// predating multiple backends carry no architecture), the bank-level MAC
// profile for "hbm-pim", and the UPMEM default for anything unrecognized —
// an unknown architecture's energy is better priced under the committed
// baseline than dropped to zero. Like ResolveProfile it returns the shared
// original, read-only.
func ResolveProfileFor(p *TechProfile, arch string) *TechProfile {
	switch {
	case p != nil:
		return p
	case arch == "hbm-pim":
		return hbmpimDefault()
	}
	return upmemDefault()
}

func (p *TechProfile) clone() *TechProfile {
	c := *p
	c.PipelinePJ = make(map[string]float64, len(p.PipelinePJ))
	for k, v := range p.PipelinePJ {
		c.PipelinePJ[k] = v
	}
	return &c
}

// Load reads a profile as a field-by-field override of the default: fields
// absent from the JSON keep their default values (including individual
// pipeline classes), so a user profile only names what it changes — except
// "name" and "format", which every override must declare itself. Reports
// attribute their numbers to Report.Profile, so inheriting the default's
// identity would mislabel custom calibrations as the committed profile; and
// inheriting the current format would let a stale profile file load
// silently under changed semantics after a ProfileFormat bump instead of
// failing loudly. Unknown fields and format mismatches are errors.
func Load(r io.Reader) (*TechProfile, error) {
	p := Default()
	p.Name = ""  // overrides must declare their own identity...
	p.Format = 0 // ...and the schema format they were written against
	// One JSON object per profile: silently dropping trailing content (say,
	// an accidental duplicate object after editing) would discard the very
	// calibration the user meant to apply.
	if err := httpjson.DecodeStrict(r, p); err != nil {
		return nil, fmt.Errorf("energy: decoding profile: %w", err)
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

// LoadFile reads a profile override from a JSON file (see Load).
func LoadFile(path string) (*TechProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("energy: %w", err)
	}
	defer f.Close()
	p, err := Load(f)
	if err != nil {
		// Load's errors carry the "energy:" prefix already; just add the path.
		return nil, fmt.Errorf("%w (profile %s)", err, path)
	}
	return p, nil
}

// Validate checks internal consistency: the declared format, a non-empty
// name, known pipeline class keys, and non-negative energies.
func (p *TechProfile) Validate() error {
	if p.Format != ProfileFormat {
		return fmt.Errorf("energy: profile %q declares format %d, this simulator expects %d (profiles must declare \"format\" explicitly)",
			p.Name, p.Format, ProfileFormat)
	}
	if p.Name == "" {
		return fmt.Errorf("energy: profile needs a name (override profiles must declare their own identity)")
	}
	known := map[string]bool{}
	for _, k := range classKeys {
		known[k] = true
	}
	for k, v := range p.PipelinePJ {
		if !known[k] {
			return fmt.Errorf("energy: profile %q: unknown pipeline class %q (want one of %v)",
				p.Name, k, classKeys)
		}
		if v < 0 {
			return fmt.Errorf("energy: profile %q: pipeline class %q energy is negative", p.Name, k)
		}
	}
	for c := 0; c < isa.NumClasses; c++ {
		if _, ok := p.PipelinePJ[classKeys[c]]; !ok {
			return fmt.Errorf("energy: profile %q: missing pipeline class %q", p.Name, classKeys[c])
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"rf_read_pj", p.RFReadPJ}, {"rf_write_pj", p.RFWritePJ},
		{"wram_read_pj", p.WRAMReadPJ}, {"wram_write_pj", p.WRAMWritePJ},
		{"iram_read_pj", p.IRAMReadPJ}, {"link_pj_per_byte", p.LinkPJPerByte},
		{"dram_activate_pj", p.DRAMActivatePJ}, {"dram_precharge_pj", p.DRAMPrechargePJ},
		{"dram_read_pj_per_byte", p.DRAMReadPJPerByte}, {"dram_write_pj_per_byte", p.DRAMWritePJPerByte},
		{"dram_refresh_pj", p.DRAMRefreshPJ},
		{"icache_access_pj", p.ICacheAccessPJ}, {"dcache_access_pj", p.DCacheAccessPJ},
		{"host_link_pj_per_byte", p.HostLinkPJPerByte}, {"leakage_mw", p.LeakageMW},
	} {
		if f.v < 0 {
			return fmt.Errorf("energy: profile %q: %s is negative", p.Name, f.name)
		}
	}
	return nil
}
