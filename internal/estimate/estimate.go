package estimate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"

	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/isa"
	"upim/internal/prim"
	"upim/internal/stats"
)

// ErrMultiDPU refuses a point with more than one DPU. A multi-DPU run's
// Result.Stats is a rank aggregate, not the per-DPU record the model
// rescales, so such a point has no anchor to project from and must be
// simulated.
var ErrMultiDPU = errors.New("estimate: multi-DPU points have no per-DPU anchor")

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
// calibration and one energy TechProfile. It is safe for concurrent use.
type Estimator struct {
	cal  *Calibration
	prof *energy.TechProfile
	// eng simulates the anchors Estimate finds missing; each anchor runs
	// once and its result is kept in anchors.
	eng     *engine.Engine
	mu      sync.Mutex
	anchors map[engine.Point]*anchorRun
}

// anchorRun is one memoised anchor simulation.
type anchorRun struct {
	once sync.Once
	res  *prim.Result
	err  error
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
	return &Estimator{
		cal:     cal,
		prof:    energy.ResolveProfile(prof),
		eng:     engine.New(1),
		anchors: map[engine.Point]*anchorRun{},
	}, nil
}

// ProfileName returns the energy TechProfile estimates are priced under.
func (e *Estimator) ProfileName() string { return e.prof.Name }

// AnchorOf returns the point p's estimate projects from: p itself with the
// timing fields the model extrapolates over — frequency, MRAM-link width,
// forwarding, the unified register file and issue width — reset to
// config.Default()'s. Every other field, the scale included, stays p's, so
// an anchor is an ordinary point any simulator path can resolve. A point
// has no anchor when it carries a machine description (the model knows
// only the UPMEM core: prim.ErrUnsupportedArch) or more than one DPU
// (ErrMultiDPU).
func AnchorOf(p engine.Point) (engine.Point, error) {
	if p.Machine != nil {
		return engine.Point{}, fmt.Errorf("%w: the estimator models the UPMEM core, not %s", prim.ErrUnsupportedArch, p.Machine.Arch)
	}
	if p.DPUs > 1 {
		return engine.Point{}, fmt.Errorf("%w: %s on %d DPUs", ErrMultiDPU, p.Benchmark, p.DPUs)
	}
	def := config.Default()
	p.Config.FreqMHz = def.FreqMHz
	p.Config.LinkBytesPerCycle = def.LinkBytesPerCycle
	p.Config.Forwarding = def.Forwarding
	p.Config.UnifiedRF = def.UnifiedRF
	p.Config.IssueWidth = def.IssueWidth
	return p, nil
}

// Estimate predicts the point's kernel cycles, modeled times and energy,
// projected from its anchor (see AnchorOf). The anchor is simulated with
// the estimator's own engine the first time a point needs it and kept; a
// point without an anchor, or whose anchor fails to simulate, returns that
// error.
func (e *Estimator) Estimate(p engine.Point) (*Estimate, error) {
	a, err := AnchorOf(p)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	run := e.anchors[a]
	if run == nil {
		run = &anchorRun{}
		e.anchors[a] = run
	}
	e.mu.Unlock()
	run.once.Do(func() { run.res, run.err = e.eng.Run(context.Background(), a) })
	if run.err != nil {
		return nil, run.err
	}
	return e.Project(p, run.res), nil
}

// Project predicts p from anchor, the simulated result of AnchorOf(p).
//
// The model extrapolates the anchor's issue-slot breakdown across the
// timing axes — frequency, MRAM-link width, the ILP ladder (forwarding,
// unified RF, issue width, the frequency doubler) — every other
// configuration field being the anchor's own; event counters are carried
// over unchanged (instruction and traffic counts are properties of the
// workload, not the clocking), which is also what makes the energy
// prediction a straight reuse of the simulator's linear event model.
func (e *Estimator) Project(p engine.Point, anchor *prim.Result) *Estimate {
	cfg := p.Config
	cycles := predictCycles(anchor, cfg)
	kernelSec := cycles / (float64(cfg.FreqMHz) * 1e6)
	transferSec := anchor.Report.Total() - anchor.Report.KernelSeconds
	est := &Estimate{
		Calibration:     e.cal.Name,
		KernelCycles:    cycles,
		KernelSeconds:   kernelSec,
		TransferSeconds: transferSec,
		TotalSeconds:    kernelSec + transferSec,
	}
	// The energy model prices the anchor's counters at the predicted cycle
	// count: leakage integrates predicted time, events are workload
	// invariants.
	st := anchor.Stats
	st.Cycles = uint64(math.Round(cycles))
	est.Energy = energy.OfRun(e.prof, cfg, []stats.DPU{st}, anchor.Report.BytesIn, anchor.Report.BytesOut)
	return est
}

// predictCycles transforms the anchor's issue-slot buckets (Fig 6: one
// issued slot plus memory, revolver and RF idle per cycle) to the target
// configuration and sums them. At the anchor configuration every scale
// factor is 1 and the four terms add up to the anchor's cycle count (the
// issue-slot accounting identity), so anchors are reproduced to rounding;
// off the anchor the prediction is only as good as the scalings below,
// which is what the calibration's probe bounds measure.
func predictCycles(a *prim.Result, cfg config.Config) float64 {
	iw := float64(cfg.IssueWidth)
	if iw < 1 {
		iw = 1
	}
	st := &a.Stats
	// Issuing cycles shrink with a wider issue slot only as far as the
	// workload's thread-level parallelism allows (the Fig 7 histogram).
	issue := st.Issued / issueGain(a, iw, cfg)

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
	fRatio := float64(cfg.FreqMHz) / float64(a.Config.FreqMHz)
	linkNow := linkBytes(a) / float64(cfg.LinkBytesPerCycle) *
		float64(cfg.FreqMHz) / config.LinkReferenceFreqMHz
	cover := linkBytes(a) / float64(a.Config.LinkBytesPerCycle) *
		float64(a.Config.FreqMHz) / config.LinkReferenceFreqMHz
	mem := math.Max(linkNow+float64(st.Idle[stats.IdleMemory]*fRatio)-cover, 0)

	// Dependency waits: forwarding replaces the revolver distance with the
	// producer's forwarding latency, weighted by the anchor's instruction
	// mix (loads and mul/div forward later than ALU results). Waiting cycles
	// are latency, not slots, and do not shrink with the issue width.
	rev := st.Idle[stats.IdleRevolver]
	if cfg.Forwarding && cfg.RevolverCycles > 0 {
		rev = float64(rev * math.Min(1, fwdLatency(a, cfg)/float64(cfg.RevolverCycles)))
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
	if a.Config.Mode == config.ModeSIMT {
		issues = float64(st.VectorIssues)
	}
	return max(cycles, issues/iw, 1)
}

// tlpReps are representative issuable-thread counts per Fig 7 histogram bin
// (0, 1~4, 5~8, 9~12, 13~16, 17~24) — bin midpoints, clamped per anchor
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
func issueGain(a *prim.Result, iw float64, cfg config.Config) float64 {
	if iw <= 1 {
		return 1
	}
	tasklets := math.Max(float64(a.Config.NumTasklets), 1)
	weight, gain := 0.0, 0.0
	for b := 1; b < stats.TLPBins; b++ {
		rep := math.Min(tlpReps[b], tasklets)
		if !cfg.UnifiedRF {
			rep = 1 + float64((rep-1)/2)
		}
		n := float64(a.Stats.TLPHist[b])
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
// the anchor's memory mode — the same routing convention the energy
// model's Link component uses: explicit DMA bytes under the scratchpad
// model, cache fills under the cache model, and nothing under SIMT, whose
// vector unit reaches the bank through the coalescer without crossing the
// link (so a SIMT estimate does not depend on the link width).
func linkBytes(a *prim.Result) float64 {
	switch a.Config.Mode {
	case config.ModeCache:
		return float64(a.Stats.DRAM.BytesRead)
	case config.ModeSIMT:
		return 0
	default: // scratchpad: explicit DMA staging
		return float64(a.Stats.DMABytes)
	}
}

// fwdLatency returns the mix-weighted forwarding latency in cycles.
func fwdLatency(a *prim.Result, cfg config.Config) float64 {
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
	for c, n := range a.Stats.Mix {
		total += float64(n)
		weighted += float64(float64(n) * lat(isa.Class(c)))
	}
	if total == 0 {
		return float64(cfg.FwdLatALU)
	}
	return weighted / total
}
