package estimate

import (
	"errors"
	"fmt"
	"math"

	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/isa"
	"upim/internal/stats"
)

// ErrNoSignature reports a point outside the calibration's signature table
// (unknown benchmark/mode/tasklets/scale/DPUs combination). Such points are
// not estimable and must be simulated; the two-tier explorer forces them
// into the simulation band.
var ErrNoSignature = errors.New("estimate: no calibration signature for point")

// Estimate is one point's analytical prediction: kernel cycles, modeled
// times and the event-level energy breakdown. Estimates are deterministic
// pure functions of (point, calibration, energy profile), which is what lets
// the explorer persist and reproduce them byte-identically across resumes.
type Estimate struct {
	// Calibration names the calibration profile the prediction came from.
	Calibration string `json:"calibration"`
	// KernelCycles is the predicted per-DPU kernel cycle count.
	KernelCycles float64 `json:"kernel_cycles"`
	// KernelSeconds/TransferSeconds/TotalSeconds mirror host.Report's
	// wall-clock model: predicted kernel time, the anchor's transfer time
	// (invariant across the core-side timing axes), and their sum.
	KernelSeconds   float64 `json:"kernel_seconds"`
	TransferSeconds float64 `json:"transfer_seconds"`
	TotalSeconds    float64 `json:"total_seconds"`
	// Energy is the predicted event-level energy report (per-component
	// picojoules under the estimator's TechProfile).
	Energy energy.Report `json:"energy"`
}

// MicroJoules returns the predicted total energy in µJ.
func (e *Estimate) MicroJoules() float64 { return e.Energy.MicroJoules() }

// EDPMicroJouleMS returns the predicted energy-delay product in µJ·ms.
func (e *Estimate) EDPMicroJouleMS() float64 {
	return e.Energy.EDPMicroJouleMS(e.TotalSeconds)
}

// Estimator predicts performance and energy for simulation points under one
// calibration and one energy TechProfile. It is immutable after New and safe
// for concurrent use.
type Estimator struct {
	cal  *Calibration
	prof *energy.TechProfile
	sigs map[sigKey]*Signature
}

// New builds an estimator from a calibration (nil = the committed default)
// and an energy TechProfile (nil = the committed default). The profile must
// be the same one any energy/EDP goals are evaluated under — the two-tier
// explorer enforces this.
func New(cal *Calibration, prof *energy.TechProfile) (*Estimator, error) {
	if cal == nil {
		cal = Default()
	}
	if err := cal.Validate(); err != nil {
		return nil, err
	}
	e := &Estimator{
		cal:  cal,
		prof: energy.ResolveProfile(prof),
		sigs: make(map[sigKey]*Signature, len(cal.Signatures)),
	}
	for i := range cal.Signatures {
		s := &cal.Signatures[i]
		e.sigs[s.key()] = s
	}
	return e, nil
}

// ProfileName returns the energy TechProfile estimates are priced under.
func (e *Estimator) ProfileName() string { return e.prof.Name }

// lookup finds the signature for a point (exact identity match). Points
// carrying a machine description run an alternative architecture backend
// the UPMEM calibration knows nothing about; they are never
// estimable and always go straight to their backend.
func (e *Estimator) lookup(p engine.Point) (*Signature, bool) {
	if p.Machine != nil {
		return nil, false
	}
	dpus := p.DPUs
	if dpus < 1 {
		dpus = 1
	}
	s, ok := e.sigs[sigKey{
		bench:    p.Benchmark,
		mode:     p.Config.Mode.String(),
		tasklets: p.Config.NumTasklets,
		scale:    p.Scale.String(),
		dpus:     dpus,
	}]
	return s, ok
}

// Estimate predicts the point's kernel cycles, modeled times and energy.
// The error is ErrNoSignature when the calibration does not cover the
// point's workload (match with errors.Is).
//
// The model extrapolates the signature's issue-slot breakdown across the
// timing axes — frequency, MRAM-link width, the ILP ladder (forwarding,
// unified RF, issue width, the frequency doubler) — and treats every other
// configuration field as unchanged from the anchor; event counters are
// carried over unchanged (instruction and traffic counts are properties of
// the workload, not the clocking), which is also what makes the energy
// prediction a straight reuse of the simulator's linear event model.
func (e *Estimator) Estimate(p engine.Point) (*Estimate, error) {
	sig, ok := e.lookup(p)
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s tasklets=%d scale=%s dpus=%d",
			ErrNoSignature, p.Benchmark, p.Config.Mode, p.Config.NumTasklets, p.Scale, max(p.DPUs, 1))
	}
	cfg := p.Config
	cycles := predictCycles(sig, cfg)
	kernelSec := cycles / (float64(cfg.FreqMHz) * 1e6)
	transferSec := sig.Report.Total() - sig.Report.KernelSeconds
	est := &Estimate{
		Calibration:     e.cal.Name,
		KernelCycles:    cycles,
		KernelSeconds:   kernelSec,
		TransferSeconds: transferSec,
		TotalSeconds:    kernelSec + transferSec,
	}
	st := sig.pseudoStats(cycles)
	est.Energy = energy.OfRun(e.prof, cfg, []stats.DPU{st}, sig.Report.BytesIn, sig.Report.BytesOut)
	return est, nil
}

// predictCycles transforms the anchor's issue-slot buckets (Fig 6: one
// issued slot plus memory, revolver and RF idle per cycle) to the target
// configuration and sums them. At the anchor configuration every scale
// factor is 1 and the four terms add up to the anchor's cycle count (the
// issue-slot accounting identity), so anchors are reproduced to rounding;
// off the anchor the prediction is only as good as the scalings below,
// which is what the calibration's probe bounds measure.
func predictCycles(sig *Signature, cfg config.Config) float64 {
	iw := float64(cfg.IssueWidth)
	if iw < 1 {
		iw = 1
	}
	st := &sig.Stats
	// Issuing cycles shrink with a wider issue slot only as far as the
	// workload's thread-level parallelism allows (the Fig 7 histogram).
	issue := st.Issued / sig.issueGain(iw, cfg)

	// Memory waits follow an interval model. Raw demand has a bandwidth part
	// — the MRAM link occupancy, whose absolute bandwidth is anchored to the
	// 350 MHz reference clock, so in core cycles it scales with frequency
	// and inversely with link width — and a latency part, the idle the
	// anchor could not hide, which is absolute time and scales with
	// frequency. The anchor hid exactly its link occupancy behind other
	// work; what demand exceeds that cover is exposed as idle. At the anchor
	// this reduces to IdleMemory exactly; at 2x frequency exposed idle grows
	// superlinearly (demand doubles, cover does not), and a wider link
	// collapses it faster than linearly.
	fRatio := float64(cfg.FreqMHz) / float64(sig.FreqMHz)
	linkNow := sig.linkBytes() / float64(cfg.LinkBytesPerCycle) *
		float64(cfg.FreqMHz) / config.LinkReferenceFreqMHz
	cover := sig.linkBytes() / float64(sig.LinkBytesPerCycle) *
		float64(sig.FreqMHz) / config.LinkReferenceFreqMHz
	mem := math.Max(linkNow+float64(st.Idle[stats.IdleMemory]*fRatio)-cover, 0)

	// Dependency waits: forwarding replaces the revolver distance with the
	// producer's forwarding latency, weighted by the signature's instruction
	// mix (loads and mul/div forward later than ALU results). Waiting cycles
	// are latency, not slots, and do not shrink with the issue width.
	rev := st.Idle[stats.IdleRevolver]
	if cfg.Forwarding && cfg.RevolverCycles > 0 {
		rev = float64(rev * math.Min(1, sig.fwdLatency(cfg)/float64(cfg.RevolverCycles)))
	}
	// The unified register file removes the odd/even RF hazard.
	rf := st.Idle[stats.IdleRF]
	if cfg.UnifiedRF {
		rf = 0
	}

	cycles := issue + mem + rev + rf
	// The prediction can never undercut the structural floor: every issue —
	// scalar instruction, or warp issue under SIMT, where one slot retires a
	// whole warp's lanes — needs an issue slot.
	issues := float64(st.Instructions)
	if sig.Mode == config.ModeSIMT.String() {
		issues = float64(st.VectorIssues)
	}
	return max(cycles, issues/iw, 1)
}

// tlpReps are representative issuable-thread counts per Fig 7 histogram bin
// (0, 1~4, 5~8, 9~12, 13~16, 17~24) — bin midpoints, clamped per signature
// to its tasklet count.
var tlpReps = [stats.TLPBins]float64{0, 2.5, 6.5, 10.5, 14.5, 20.5}

// issueGain returns the expected per-cycle issue throughput at issue width
// iw relative to single-issue: E[min(candidates, iw)] over the cycles with
// at least one issuable thread, estimated from the TLP histogram. gain(1)
// is exactly 1, and a workload whose threads are mostly blocked gains
// almost nothing from dual issue — which is why the S feature helps some
// workloads and not others. Two structural ceilings temper the histogram:
// under the split odd/even register file a second slot can only co-issue a
// thread of opposite parity, so only half the extra issuable threads are
// candidates (the unified RF lifts that); and without forwarding a thread
// re-arms its revolver timer after every issue, so sustained throughput is
// capped at Tasklets/RevolverCycles no matter how deep the issuable queue
// looks — which is why S alone buys little and S+D much more, matching the
// paper's Fig 12 ladder.
func (s *Signature) issueGain(iw float64, cfg config.Config) float64 {
	if iw <= 1 {
		return 1
	}
	tasklets := math.Max(float64(s.Tasklets), 1)
	weight, gain := 0.0, 0.0
	for b := 1; b < stats.TLPBins; b++ {
		rep := math.Min(tlpReps[b], tasklets)
		if !cfg.UnifiedRF {
			rep = 1 + float64((rep-1)/2)
		}
		n := float64(s.Stats.TLPHist[b])
		weight += n
		gain += float64(n * math.Min(rep, iw))
	}
	if weight == 0 {
		return 1
	}
	g := gain / weight
	if !cfg.Forwarding && cfg.RevolverCycles > 0 {
		g = math.Min(g, tasklets/float64(cfg.RevolverCycles))
	}
	return math.Max(g, 1)
}

// linkBytes returns the traffic that crosses the MRAM<->WRAM datapath under
// the signature's memory mode — the same routing convention the energy
// model's Link component uses: explicit DMA bytes under the scratchpad
// model, cache fills under the cache model, and nothing under SIMT, whose
// vector unit reaches the bank through the coalescer without crossing the
// link (so a SIMT estimate does not depend on the link width).
func (s *Signature) linkBytes() float64 {
	switch s.Mode {
	case config.ModeCache.String():
		return float64(s.Stats.DRAM.BytesRead)
	case config.ModeSIMT.String():
		return 0
	default: // scratchpad: explicit DMA staging
		return float64(s.Stats.DMABytes)
	}
}

// fwdLatency returns the mix-weighted forwarding latency in cycles.
func (s *Signature) fwdLatency(cfg config.Config) float64 {
	lat := func(c isa.Class) float64 {
		switch c {
		case isa.ClassMulDiv:
			return float64(cfg.FwdLatMulDiv)
		case isa.ClassLoadStore, isa.ClassDMA:
			return float64(cfg.FwdLatLoad)
		default:
			return float64(cfg.FwdLatALU)
		}
	}
	total, weighted := 0.0, 0.0
	for c, n := range s.Stats.Mix {
		total += float64(n)
		weighted += float64(float64(n) * lat(isa.Class(c)))
	}
	if total == 0 {
		return float64(cfg.FwdLatALU)
	}
	return weighted / total
}

// pseudoStats builds the counter record the energy model prices: the
// anchor's counters with the predicted cycle count (leakage integrates
// predicted time, events are workload invariants).
func (s *Signature) pseudoStats(cycles float64) stats.DPU {
	st := s.Stats
	st.Cycles = uint64(math.Round(cycles))
	return st
}
