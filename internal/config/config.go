package config

import (
	"fmt"
	"strings"
)

// Tick is the simulator base time unit (1/134,400 MHz ~ 7.44 ps).
type Tick = uint64

// TickFrequencyMHz is the number of ticks per microsecond.
const TickFrequencyMHz = 134_400

// TicksPerCycle converts a clock frequency in MHz to ticks per cycle,
// panicking if the frequency does not divide the tick clock exactly
// (configuration error, caught at construction time).
func TicksPerCycle(freqMHz int) Tick {
	if freqMHz <= 0 || TickFrequencyMHz%freqMHz != 0 {
		panic(fmt.Sprintf("config: frequency %d MHz does not divide the %d MHz tick clock", freqMHz, TickFrequencyMHz))
	}
	return Tick(TickFrequencyMHz / freqMHz)
}

// Mode selects the memory-system organisation of the simulated DPU.
type Mode int

const (
	// ModeScratchpad is the baseline UPMEM-PIM design: loads/stores address
	// WRAM only; MRAM is reached through explicit DMA instructions.
	ModeScratchpad Mode = iota
	// ModeCache is the case-study 4 design: loads/stores address a flat
	// DRAM-backed space through on-demand I/D caches; there is no DMA
	// staging.
	ModeCache
	// ModeSIMT is the case-study 1 design: tasklets are ganged into warps
	// executing on a vector unit; loads/stores address MRAM directly through
	// an optional address coalescer. It models the baseline pipeline: the
	// ILP features other than frequency, and the MMU, are refused with it.
	ModeSIMT
)

func (m Mode) String() string {
	switch m {
	case ModeScratchpad:
		return "scratchpad"
	case ModeCache:
		return "cache"
	case ModeSIMT:
		return "simt"
	default:
		return fmt.Sprintf("mode?%d", int(m))
	}
}

// ParseMode is the inverse of Mode.String.
func ParseMode(s string) (Mode, error) {
	for m := ModeScratchpad; m <= ModeSIMT; m++ {
		if m.String() == s {
			return m, nil
		}
	}
	return 0, fmt.Errorf("config: unknown mode %q (want scratchpad, cache or simt)", s)
}

// CacheConfig parameterizes one set-associative cache.
type CacheConfig struct {
	SizeBytes int
	Ways      int
	LineBytes int
	// LoadCoalescing merges outstanding misses to the same line in MSHRs so
	// threads piggyback on in-flight fills (the "load coalescing feature"
	// of Fig 15's cache-centric design).
	LoadCoalescing bool
	// WriteAllocate selects write-allocate (true, default) or
	// write-no-allocate miss handling.
	WriteAllocate bool
}

func (c CacheConfig) lineIsPow2() bool {
	return c.LineBytes > 0 && c.LineBytes&(c.LineBytes-1) == 0
}

// MMUConfig parameterizes the case-study 3 memory-management unit.
type MMUConfig struct {
	Enable    bool
	PageBytes int
	TLBSize   int // fully-associative entries
	// FaultHandlerNs is the host round-trip latency to service a page fault
	// through the fault buffer (polling/interrupt path).
	FaultHandlerNs int
	// Prefault maps every page the host touches while loading data, so
	// kernels only pay TLB misses (the paper's measurement scenario).
	// Disabling it demand-faults on first access.
	Prefault bool
}

// Config is the full per-DPU hardware configuration. The zero value is not
// meaningful; use Default and mutate.
type Config struct {
	// --- DPU processor architecture (Table I) ---
	FreqMHz        int // DPU clock, 350 MHz
	PipelineStages int // 14-stage in-order pipeline
	// RevolverCycles is the minimum issue distance between two consecutive
	// instructions of the same thread.
	RevolverCycles int
	WRAMBytes      int
	IRAMBytes      int
	AtomicLocks    int // 256 one-bit locks ("atomic memory size 256 bits")
	NumTasklets    int // threads launched on this DPU (<= MaxTasklets)
	MaxTasklets    int
	StackBytes     int // per-thread stack carved from WRAM
	HeapBytes      int // WRAM heap
	// WRAMBytesPerCycle is the scratchpad port width (4 B/clock = 1400 MB/s).
	WRAMBytesPerCycle int

	// --- DRAM system (Table I) ---
	MRAMBytes   int
	DRAMFreqMHz int // DDR4-2400 command clock: 1200 MHz
	RowBytes    int
	// Timing parameters in DRAM clock cycles.
	TRCD, TRAS, TRP, TCL, TBL int
	// BurstBytes is the data moved per burst (x8 chip, BL8 -> 8 bytes).
	BurstBytes int
	// LinkBytesPerCycle is the MRAM<->WRAM DMA link width in bytes per
	// *reference* (350 MHz) DPU cycle: 2 B/cycle = 700 MB/s theoretical.
	// The link is a property of the memory system, so its absolute
	// bandwidth does not scale with the core clock (this is why the Fig 12
	// "F" feature leaves memory-bound workloads behind); Fig 13 scales it
	// explicitly.
	LinkBytesPerCycle int
	// RefreshEnable adds tREFI/tRFC refresh stalls to the bank model.
	RefreshEnable      bool
	TREFI, TRFC        int  // DRAM clocks
	MemSchedulerFRFCFS bool // false degrades to strict FCFS (ablation)

	// --- Communication (Table I) ---
	CPUToDPUBytesPerSec float64 // 0.296 GB/s per DPU
	DPUToCPUBytesPerSec float64 // 0.063 GB/s per DPU

	// --- ILP case-study features (Fig 12) ---
	// Forwarding ("D") lets a thread issue back-to-back independent
	// instructions; dependent instructions wait only for the producer's
	// forwarding latency instead of the full revolver distance.
	Forwarding bool
	// UnifiedRF ("R") merges the odd/even register banks with doubled read
	// bandwidth, removing the structural hazard.
	UnifiedRF bool
	// IssueWidth ("S") is the number of instructions issued per cycle
	// (1 = baseline, 2 = 2-way superscalar in-order).
	IssueWidth int
	// Forwarding latencies (DPU cycles from issue until a dependent may
	// issue) — modeling parameters, only used when Forwarding is on.
	FwdLatALU, FwdLatMulDiv, FwdLatLoad int

	// --- Memory organisation ---
	Mode   Mode
	ICache CacheConfig // used in ModeCache
	DCache CacheConfig // used in ModeCache
	MMU    MMUConfig

	// --- SIMT case-study (Fig 11) ---
	// SIMTWidth is the vector width (lanes per warp).
	SIMTWidth int
	// SIMTCoalesce enables the inter-lane memory address coalescer ("AC").
	SIMTCoalesce bool

	// --- Instrumentation ---
	// TimelineWindow, when > 0, records the average number of issuable
	// threads over each window of this many cycles (Fig 8).
	TimelineWindow int
	// TraceIssues records per-issue events for invariant checking in tests.
	// Memory cost: one ~24-byte IssueEvent per issued instruction, bounded
	// by the Run watchdog times IssueWidth. The DPU presizes the trace from
	// that bound at Run time (capped at 1M events up front) so steady-state
	// tracing does not churn the allocator; budget roughly 24 MB per million
	// issued instructions before enabling it on long kernels.
	TraceIssues bool
}

// Default returns the paper's Table I configuration.
func Default() Config {
	return Config{
		FreqMHz:           350,
		PipelineStages:    14,
		RevolverCycles:    11,
		WRAMBytes:         64 << 10,
		IRAMBytes:         24 << 10,
		AtomicLocks:       256,
		NumTasklets:       16,
		MaxTasklets:       24,
		StackBytes:        2 << 10,
		HeapBytes:         4 << 10,
		WRAMBytesPerCycle: 4,

		MRAMBytes:          64 << 20,
		DRAMFreqMHz:        1200,
		RowBytes:           1024,
		TRCD:               16,
		TRAS:               39,
		TRP:                16,
		TCL:                16,
		TBL:                4,
		BurstBytes:         8,
		LinkBytesPerCycle:  2,
		RefreshEnable:      false,
		TREFI:              9360, // 7.8 us at 1200 MHz
		TRFC:               420,  // 350 ns at 1200 MHz
		MemSchedulerFRFCFS: true,

		CPUToDPUBytesPerSec: 0.296e9,
		DPUToCPUBytesPerSec: 0.063e9,

		Forwarding:   false,
		UnifiedRF:    false,
		IssueWidth:   1,
		FwdLatALU:    4,
		FwdLatMulDiv: 6,
		FwdLatLoad:   6,

		Mode: ModeScratchpad,
		ICache: CacheConfig{
			SizeBytes: 24 << 10, Ways: 8, LineBytes: 64,
			LoadCoalescing: true, WriteAllocate: true,
		},
		DCache: CacheConfig{
			SizeBytes: 64 << 10, Ways: 8, LineBytes: 64,
			LoadCoalescing: true, WriteAllocate: true,
		},
		MMU: MMUConfig{
			Enable:         false,
			PageBytes:      4 << 10,
			TLBSize:        16,
			FaultHandlerNs: 2000,
			Prefault:       true,
		},

		SIMTWidth:    16,
		SIMTCoalesce: false,

		TimelineWindow: 0,
	}
}

// ParseILP validates a Fig 12 feature set — a subset of "DRSF" (forwarding,
// unified RF, 2-way issue, doubled clock), each letter at most once, in any
// order — and returns it with "base", the empty set's name, normalised to "".
func ParseILP(s string) (string, error) {
	if s == "base" {
		return "", nil
	}
	for i, f := range s {
		if !strings.ContainsRune("DRSF", f) || strings.ContainsRune(s[:i], f) {
			return "", fmt.Errorf("config: ILP features %q: feature %q is unknown or repeated (want a subset of DRSF, or \"base\")", s, string(f))
		}
	}
	return s, nil
}

// WithILP returns a copy of c with the requested additive Fig 12 features
// (see ParseILP); it panics on a set ParseILP rejects.
func (c Config) WithILP(features string) Config {
	features, err := ParseILP(features)
	if err != nil {
		panic(err.Error())
	}
	for _, f := range features {
		switch f {
		case 'D':
			c.Forwarding = true
		case 'R':
			c.UnifiedRF = true
		case 'S':
			c.IssueWidth = 2
		case 'F':
			c.FreqMHz *= 2
		}
	}
	return c
}

// simtBaselineOnly opens the message for an ILP or MMU feature combined with
// ModeSIMT: the vector engine would ignore it, so the combination is refused
// rather than simulated as something it is not.
const simtBaselineOnly = "the SIMT vector engine models the baseline in-order pipeline; "

// Validate checks internal consistency; every simulator entry point calls it.
func (c Config) Validate() error {
	checks := []struct {
		ok  bool
		msg string
	}{
		{c.FreqMHz > 0 && TickFrequencyMHz%c.FreqMHz == 0, "DPU frequency must divide the tick clock"},
		{c.DRAMFreqMHz > 0 && TickFrequencyMHz%c.DRAMFreqMHz == 0, "DRAM frequency must divide the tick clock"},
		{c.RevolverCycles >= 1, "revolver distance must be >= 1"},
		{c.NumTasklets >= 1, "at least one tasklet"},
		{c.Mode == ModeSIMT || c.NumTasklets <= c.MaxTasklets, "tasklets exceed hardware maximum"},
		{c.WRAMBytes > 0 && c.IRAMBytes > 0 && c.MRAMBytes > 0, "memory sizes must be positive"},
		{c.IRAMBytes%6 == 0, "IRAM size must be a multiple of the 6-byte instruction word"},
		{c.AtomicLocks > 0 && c.AtomicLocks <= 256, "atomic region is 1..256 locks"},
		{c.BurstBytes > 0 && c.BurstBytes%8 == 0, "burst size must be a positive multiple of 8"},
		{c.LinkBytesPerCycle > 0, "link width must be positive"},
		{c.RowBytes > 0 && c.RowBytes%c.BurstBytes == 0, "row size must be a multiple of the burst size"},
		{c.IssueWidth == 1 || c.IssueWidth == 2, "issue width must be 1 or 2"},
		{c.Mode != ModeSIMT || c.SIMTWidth > 0, "SIMT width must be positive"},
		{c.Mode != ModeSIMT || !c.Forwarding, simtBaselineOnly + "Forwarding is not modelled"},
		{c.Mode != ModeSIMT || !c.UnifiedRF, simtBaselineOnly + "UnifiedRF is not modelled"},
		{c.Mode != ModeSIMT || c.IssueWidth == 1, simtBaselineOnly + "IssueWidth other than 1 is not modelled"},
		{c.Mode != ModeSIMT || !c.MMU.Enable, simtBaselineOnly + "MMU.Enable is not modelled"},
		{c.TRCD > 0 && c.TRP > 0 && c.TCL > 0 && c.TBL > 0 && c.TRAS > 0, "DRAM timings must be positive"},
		{!c.MMU.Enable || (c.MMU.PageBytes > 0 && c.MMU.TLBSize > 0), "MMU needs page size and TLB entries"},
		{c.CPUToDPUBytesPerSec > 0 && c.DPUToCPUBytesPerSec > 0, "communication bandwidths must be positive"},
		// Line addresses are formed by masking, and a line is filled and
		// written back in whole bursts (the rest of the geometry is
		// cache.New's to check).
		{c.Mode != ModeCache || (c.ICache.lineIsPow2() && c.DCache.lineIsPow2()), "cache line size must be a power of two"},
		{c.Mode != ModeCache || c.BurstBytes <= 0 || (c.ICache.LineBytes%c.BurstBytes == 0 && c.DCache.LineBytes%c.BurstBytes == 0), "cache line size must be a multiple of the burst size"},
	}
	for _, ch := range checks {
		if !ch.ok {
			return fmt.Errorf("config: %s", ch.msg)
		}
	}
	return nil
}

// LinkReferenceFreqMHz anchors LinkBytesPerCycle's absolute bandwidth: the
// link moves LinkBytesPerCycle bytes per 350 MHz cycle regardless of the
// core clock.
const LinkReferenceFreqMHz = 350

// DPUTicksPerCycle returns the DPU clock period in ticks.
func (c Config) DPUTicksPerCycle() Tick { return TicksPerCycle(c.FreqMHz) }

// DRAMTicksPerCycle returns the DRAM command-clock period in ticks.
func (c Config) DRAMTicksPerCycle() Tick { return TicksPerCycle(c.DRAMFreqMHz) }

// IRAMCapacity returns the instruction capacity of IRAM.
func (c Config) IRAMCapacity() int { return c.IRAMBytes / 6 }

// CyclesToSeconds converts DPU cycles to wall-clock seconds at this
// configuration's frequency.
func (c Config) CyclesToSeconds(cycles uint64) float64 {
	return float64(cycles) / (float64(c.FreqMHz) * 1e6)
}
