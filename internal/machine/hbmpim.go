// The bank-level SIMD/MAC execution model behind the "hbm-pim" machine
// backend: an analytical-but-event-exact model of a
// Samsung-HBM-PIM-style architecture where each memory channel hosts
// processing units that execute MAC commands against all banks in lockstep
// (or bank group by bank group), streaming operands out of open DRAM rows.
//
// Unlike the cycle-exact UPMEM core it sits next to, the model derives its
// timing in closed form from the machine description — row activates, PIM
// command slots spaced by tCCD, and writeback — and emits the same
// stats.DPU event counters the UPMEM core does, so the existing linear
// energy model prices it under a second TechProfile with no new code. The
// model is a pure integer function of (benchmark shape, machine
// description, site count): deterministic, parallelism-invariant, and
// therefore safe for the content-addressed store's byte-identical resume
// contract.

package machine

import (
	"cmp"
	"context"
	"errors"
	"fmt"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/isa"
	"upim/internal/prim"
	"upim/internal/stats"
)

// elemBytes is the operand width: FP32, HBM-PIM's native MAC type.
const elemBytes = 4

// shape describes a benchmark's bank-level traffic: how many operand
// elements stream out of the banks, how many result elements are written
// back, the host transfer volumes and the instruction-mix class of the
// per-element operation.
type shape struct {
	// stream counts operand elements read from banks (MAC/ALU inputs).
	stream int
	// out counts result elements written back to banks.
	out int
	// bytesIn/bytesOut are host link volumes for the whole run.
	bytesIn, bytesOut uint64
	class             isa.Class
}

// shapeOf maps a PrIM benchmark at a scale to its bank-level shape. Only
// the dense streaming kernels have an HBM-PIM mapping — the architecture
// has no scalar control flow, so pointer-chasing and data-dependent
// workloads (BFS, BS, NW, ...) are unsupported and refused by Check.
func shapeOf(benchmark string, p prim.Params) (shape, bool) {
	switch benchmark {
	case "GEMV":
		// y = A·x: stream the M×N matrix once, broadcast x, write y back.
		n := p.M * p.N
		return shape{
			stream:   n,
			out:      p.M,
			bytesIn:  uint64(elemBytes * (n + p.N)),
			bytesOut: uint64(elemBytes * p.M),
			class:    isa.ClassMulDiv,
		}, true
	case "MLP":
		// Layers chained dim×dim GEMVs; each layer writes its activations.
		dim := p.M
		n := p.Layers * dim * dim
		return shape{
			stream:   n,
			out:      p.Layers * dim,
			bytesIn:  uint64(elemBytes * (n + dim)),
			bytesOut: uint64(elemBytes * dim),
			class:    isa.ClassMulDiv,
		}, true
	case "VA":
		// c = a + b: stream both operand vectors, write the sum back.
		return shape{
			stream:   2 * p.N,
			out:      p.N,
			bytesIn:  uint64(elemBytes * 2 * p.N),
			bytesOut: uint64(elemBytes * p.N),
			class:    isa.ClassArith,
		}, true
	case "RED":
		// Tree reduction: stream the vector, one scalar out.
		return shape{
			stream:   p.N,
			out:      1,
			bytesIn:  uint64(elemBytes * p.N),
			bytesOut: uint64(elemBytes),
			class:    isa.ClassArith,
		}, true
	}
	return shape{}, false
}

// hbmpimBackend implements Backend for the bank-level MAC model.
type hbmpimBackend struct{}

// ErrTooManySites reports a workload that engages more compute sites than
// its machine description has channels.
var ErrTooManySites = errors.New("machine: more sites than channels")

// hbmpimDefault is the description a workload without one runs on; Check
// and Run only read it.
var hbmpimDefault = HBMPIM()

// Check accepts a benchmark with a bank-level mapping (shapeOf) on one to
// Channels sites of a valid HBM-PIM description, under config.Default()
// only: the model reads no Config field, so a memory mode, ILP feature,
// link or clock setting would be ignored, not modelled.
func (hbmpimBackend) Check(w Workload) error {
	if _, ok := shapeOf(w.Benchmark, prim.Params{}); !ok {
		return fmt.Errorf("%w: %s has no bank-level MAC mapping", prim.ErrUnsupportedMode, w.Benchmark)
	}
	if w.Config != config.Default() {
		return fmt.Errorf("%w: hbm-pim models only the default configuration", prim.ErrUnsupportedMode)
	}
	d := cmp.Or(w.Desc, hbmpimDefault)
	if err := d.Validate(); err != nil {
		return err
	}
	if d.Arch != ArchHBMPIM {
		return fmt.Errorf("hbmpim: backend handed a %q description", d.Arch)
	}
	if w.Sites <= 0 {
		return fmt.Errorf("hbmpim: need at least one site, got %d", w.Sites)
	}
	if w.Sites > d.Channels {
		return fmt.Errorf("%w: %d sites exceed the machine's %d channels", ErrTooManySites, w.Sites, d.Channels)
	}
	return nil
}

// ceilDiv is integer ceiling division for positive divisors.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// siteShare splits n elements over sites block-wise: site i of s gets
// n/s plus one of the n%s remainder elements — a fixed partition, so the
// model is independent of execution order.
func siteShare(n, sites, i int) int {
	share := n / sites
	if i < n%sites {
		share++
	}
	return share
}

// siteCycles returns the closed-form command-clock cycles one site needs
// to stream `cmds` read commands and `wbCmds` writeback commands touching
// `acts` row activations: the first activate pays tRCD, each further row
// turnaround pays tRP+tRCD, every command occupies one tCCD-spaced slot,
// and the tail pays CAS latency plus one burst.
func siteCycles(d *Desc, cmds, wbCmds, acts int) int {
	if acts == 0 {
		return 0
	}
	spacing := d.TCCDL
	if d.CommandMode == CommandBankGroup {
		// Round-robin over groups: tCCD_S between groups, but a full
		// rotation issues BankGroups commands per slot position.
		spacing = d.BankGroups * d.TCCDS
	}
	return d.TRCD + (acts-1)*(d.TRP+d.TRCD) + (cmds+wbCmds)*spacing + d.TCL + d.TBL
}

// Run executes one workload analytically. Sites is the number of engaged
// channels; the benchmark's operand stream is block-partitioned across
// them and each site's command schedule is derived independently, so
// per-site counters are exactly what a per-site simulation would produce.
func (b hbmpimBackend) Run(ctx context.Context, w Workload) (*prim.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := b.Check(w); err != nil {
		return nil, err
	}
	d := cmp.Or(w.Desc, hbmpimDefault)
	bench, _ := prim.ByName(w.Benchmark) // shapeOf maps suite benchmarks only
	p, err := bench.Params(w.Scale)
	if err != nil {
		return nil, fmt.Errorf("hbmpim: %w", err)
	}
	sh, _ := shapeOf(w.Benchmark, p)

	banks := d.Banks()
	cmdBytes := banks * d.ColumnBytes // bytes one all-bank command touches
	colsPerRow := d.RowBytes / d.ColumnBytes

	perSite := make([]stats.DPU, w.Sites)
	var maxCycles uint64
	for i := range perSite {
		share := siteShare(sh.stream, w.Sites, i)
		outShare := siteShare(sh.out, w.Sites, i)
		cmds := ceilDiv(share*elemBytes, cmdBytes)
		wbCmds := ceilDiv(outShare*elemBytes, cmdBytes)
		acts := ceilDiv(cmds, colsPerRow) + ceilDiv(wbCmds, colsPerRow)
		cycles := siteCycles(d, cmds, wbCmds, acts)
		if uint64(cycles) > maxCycles {
			maxCycles = uint64(cycles)
		}
		if w.Watchdog > 0 && uint64(cycles) > w.Watchdog {
			return nil, fmt.Errorf("hbmpim: %s site %d needs %d cycles, watchdog allows %d",
				w.Benchmark, i, cycles, w.Watchdog)
		}

		st := &perSite[i]
		st.Cycles = uint64(cycles)
		st.Instructions = uint64(share)
		st.VectorIssues = uint64(cmds + wbCmds)
		st.IssueSlots = float64(cycles * d.IssueWidth)
		st.Issued = float64(cmds + wbCmds)
		if idle := st.IssueSlots - st.Issued; idle > 0 {
			st.Idle[stats.IdleMemory] = idle
		}
		st.Mix[sh.class] = uint64(share)
		// Every command bursts one column out of (or into) every bank; the
		// first activation of each schedule opens precharged banks, each
		// row turnaround conflicts, and the remaining bursts hit open rows.
		st.DRAM.BytesRead = uint64(cmds * cmdBytes)
		st.DRAM.BytesWritten = uint64(wbCmds * cmdBytes)
		st.DRAM.ReadBursts = uint64(cmds * banks)
		st.DRAM.WriteBursts = uint64(wbCmds * banks)
		if acts > 0 {
			st.DRAM.RowEmpty = uint64(banks)
			st.DRAM.RowMisses = uint64((acts - 1) * banks)
			st.DRAM.RowHits = uint64((cmds + wbCmds - acts) * banks)
		}
		// One GRF operand read and one accumulator write per MAC lane
		// element.
		st.RFReads = uint64(share)
		st.RFWrites = uint64(outShare + share)
	}

	agg := stats.DPU{}
	for i := range perSite {
		agg.Add(&perSite[i])
	}

	// The result's Config carries the machine's clocks so downstream
	// consumers (leakage integration, artifact provenance) see the machine
	// that actually ran; everything else stays at the committed defaults.
	cfg := config.Default()
	cfg.FreqMHz = d.DRAMFreqMHz
	cfg.DRAMFreqMHz = d.DRAMFreqMHz
	cfg.RowBytes = d.RowBytes
	cfg.BurstBytes = d.ColumnBytes

	rep := host.Report{
		KernelSeconds: float64(maxCycles) / (float64(d.DRAMFreqMHz) * 1e6),
		Launches:      1,
		BytesIn:       sh.bytesIn,
		BytesOut:      sh.bytesOut,
	}
	rep.TransferSeconds[host.PhaseInput] = float64(sh.bytesIn) / (d.HostToSiteBps * float64(w.Sites))
	rep.TransferSeconds[host.PhaseOutput] = float64(sh.bytesOut) / (d.SiteToHostBps * float64(w.Sites))

	return &prim.Result{
		Benchmark: w.Benchmark,
		Arch:      ArchHBMPIM,
		Mode:      cfg.Mode,
		Tasklets:  d.PUsPerRank * d.MACsPerPU,
		DPUs:      w.Sites,
		Config:    cfg,
		Report:    rep,
		Stats:     agg,
		PerDPU:    perSite,
	}, nil
}
