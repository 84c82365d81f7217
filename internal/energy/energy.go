package energy

import (
	"fmt"
	"strconv"

	"upim/internal/artifact"
	"upim/internal/config"
	"upim/internal/isa"
	"upim/internal/stats"
)

// Component is one bucket of the energy breakdown.
type Component int

const (
	// Pipeline is per-issue front-end/execute energy, keyed by mix class.
	Pipeline Component = iota
	// RegFile is GPR array read/write energy.
	RegFile
	// WRAM is scratchpad load/store port energy.
	WRAM
	// IRAM is instruction-fetch energy (zero in cache mode, where fetches
	// are charged to the I-cache array instead).
	IRAM
	// Link is the MRAM<->WRAM datapath energy per byte moved.
	Link
	// DRAM is bank energy: activates, precharges, per-byte column traffic
	// and refreshes.
	DRAM
	// CacheArrays is I/D cache tag+data lookup energy (cache mode).
	CacheArrays
	// HostLink is CPU<->DPU channel transfer energy.
	HostLink
	// Leakage is static power integrated over each DPU's kernel cycles.
	Leakage

	NumComponents
)

var componentNames = [NumComponents]string{
	"pipeline", "rf", "wram", "iram", "link", "dram", "cache", "host", "leakage",
}

func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return fmt.Sprintf("component?%d", int(c))
}

// Report is one energy accounting: picojoules per component under a named
// profile. Reports from the same profile compose with Add, which is what
// makes per-DPU and per-window accountings sum to the bulk number.
type Report struct {
	// Profile names the TechProfile the report was computed under.
	Profile string
	// PJ is the per-component energy in picojoules.
	PJ [NumComponents]float64
}

// Add returns the component-wise sum (r's profile name is kept).
func (r Report) Add(o Report) Report {
	for i := range r.PJ {
		r.PJ[i] += o.PJ[i]
	}
	return r
}

// TotalPJ returns the summed energy in picojoules.
func (r Report) TotalPJ() float64 {
	t := 0.0
	for _, v := range r.PJ {
		t += v
	}
	return t
}

// MicroJoules returns the summed energy in microjoules (the unit the
// artifact tables display).
func (r Report) MicroJoules() float64 { return r.TotalPJ() * 1e-6 }

// Joules returns the summed energy in joules.
func (r Report) Joules() float64 { return r.TotalPJ() * 1e-12 }

// PowerWatts returns the average power over a modeled duration.
func (r Report) PowerWatts(seconds float64) float64 {
	if seconds <= 0 {
		return 0
	}
	return r.Joules() / seconds
}

// EDP returns the energy-delay product in joule-seconds for a modeled
// duration — the efficiency goal GoalEDP ranks pathfinding candidates by.
func (r Report) EDP(seconds float64) float64 { return r.Joules() * seconds }

// EDPMicroJouleMS returns the energy-delay product in the display unit all
// the artifact tables and the EDP goal share (µJ·ms; 1 J·s = 1e9 µJ·ms).
// Having exactly one site derive the display unit keeps the Pareto goal,
// the breakdown tables and the CLI columns provably consistent.
func (r Report) EDPMicroJouleMS(seconds float64) float64 { return r.EDP(seconds) * 1e9 }

// Kernel computes one statistics record's event energy: every component
// except HostLink, which is a system-level quantity (see HostTransfer). The
// record may be a single DPU's or a rank aggregate; note that aggregates
// carry the max cycle count, so multi-DPU leakage should be summed per DPU
// (OfRun does).
//
// The computation is a pure linear function of the record's counters, so
// windowed deltas of the same execution sum exactly to the bulk report —
// the bulk ≡ stepwise property the energy tests pin down.
func Kernel(p *TechProfile, cfg config.Config, st *stats.DPU) Report {
	p = ResolveProfile(p)
	r := Report{Profile: p.Name}

	for c := 0; c < isa.NumClasses; c++ {
		r.PJ[Pipeline] += float64(st.Mix[c]) * p.PipelinePJ[classKeys[c]]
	}
	r.PJ[RegFile] = float64(st.RFReads)*p.RFReadPJ + float64(st.RFWrites)*p.RFWritePJ
	r.PJ[WRAM] = float64(st.WRAMReads)*p.WRAMReadPJ + float64(st.WRAMWrites)*p.WRAMWritePJ

	// Instruction fetches: one IRAM word per scalar issue, one per warp
	// issue under SIMT; in cache mode fetches go through the I-cache and are
	// charged to the cache arrays instead.
	switch cfg.Mode {
	case config.ModeCache:
	case config.ModeSIMT:
		r.PJ[IRAM] = float64(st.VectorIssues) * p.IRAMReadPJ
	default:
		r.PJ[IRAM] = float64(st.Instructions) * p.IRAMReadPJ
	}

	// MRAM<->WRAM link traffic: explicit DMA bytes under the scratchpad
	// model; cache fills under the cache model (writebacks post straight to
	// the bank); the SIMT vector unit reaches the bank through the coalescer
	// without crossing the link.
	switch cfg.Mode {
	case config.ModeScratchpad:
		r.PJ[Link] = float64(st.DMABytes) * p.LinkPJPerByte
	case config.ModeCache:
		r.PJ[Link] = float64(st.DRAM.BytesRead) * p.LinkPJPerByte
	}

	// DRAM bank events. Precharges happen on row conflicts (precharge +
	// activate) and refreshes (all-bank precharge).
	d := &st.DRAM
	r.PJ[DRAM] = float64(d.Activations())*p.DRAMActivatePJ +
		float64(d.RowMisses+d.Refreshes)*p.DRAMPrechargePJ +
		float64(d.BytesRead)*p.DRAMReadPJPerByte +
		float64(d.BytesWritten)*p.DRAMWritePJPerByte +
		float64(d.Refreshes)*p.DRAMRefreshPJ

	r.PJ[CacheArrays] = float64(st.ICache.Accesses)*p.ICacheAccessPJ +
		float64(st.DCache.Accesses)*p.DCacheAccessPJ

	// Static leakage over this record's cycles: 1 mW·s = 1e9 pJ.
	r.PJ[Leakage] = p.LeakageMW * 1e9 * cfg.CyclesToSeconds(st.Cycles)
	return r
}

// HostTransfer computes the CPU<->DPU channel energy of a run's transfer
// volumes (host.Report.BytesIn/BytesOut).
func HostTransfer(p *TechProfile, bytesIn, bytesOut uint64) Report {
	p = ResolveProfile(p)
	r := Report{Profile: p.Name}
	r.PJ[HostLink] = float64(bytesIn+bytesOut) * p.HostLinkPJPerByte
	return r
}

// OfRun computes a whole run's energy: per-DPU kernel event energy summed
// over the rank (so each DPU's leakage integrates its own cycles) plus the
// host channel transfers.
func OfRun(p *TechProfile, cfg config.Config, perDPU []stats.DPU, bytesIn, bytesOut uint64) Report {
	p = ResolveProfile(p)
	r := HostTransfer(p, bytesIn, bytesOut)
	for i := range perDPU {
		r = r.Add(Kernel(p, cfg, &perDPU[i]))
	}
	return r
}

// val renders an energy-table number: compact %.4g display over the exact
// value, stable across magnitudes from nanojoule components to joule totals.
func val(v float64) artifact.Value {
	var buf [32]byte // the text string is the only allocation
	return artifact.Raw(string(strconv.AppendFloat(buf[:0], v, 'g', 4, 64)), v)
}

// BreakdownColumns returns the standard energy-table columns: one per
// component plus total (all µJ), average power (mW) and EDP (µJ·ms). Every
// energy artifact in the repo — the figures "energy" experiment, the
// explorer's energy table, upimulator -kernel all -energy — shares this shape.
func BreakdownColumns() []artifact.Column {
	cols := make([]artifact.Column, 0, NumComponents+3)
	for c := range NumComponents {
		cols = append(cols, artifact.Column{Name: c.String(), Unit: "uJ"})
	}
	return append(cols,
		artifact.Column{Name: "total", Unit: "uJ"},
		artifact.Column{Name: "power", Unit: "mW"},
		artifact.Column{Name: "EDP", Unit: "uJ*ms"},
	)
}

// AppendBreakdownRow appends one report's cells under BreakdownColumns to
// row. totalSeconds is the modeled duration power and EDP derive from (a
// run's end-to-end time).
func AppendBreakdownRow(row []artifact.Value, r Report, totalSeconds float64) []artifact.Value {
	for c := range NumComponents {
		row = append(row, val(r.PJ[c]*1e-6))
	}
	return append(row,
		val(r.MicroJoules()),
		val(r.PowerWatts(totalSeconds)*1e3),
		val(r.EDPMicroJouleMS(totalSeconds)),
	)
}
