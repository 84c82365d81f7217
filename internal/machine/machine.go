// Package machine defines the architecture-neutral machine description that
// lets the explorer span PIM *architectures*, not just UPMEM parameters: a
// versioned JSON schema naming compute sites (channels × ranks × PUs ×
// MACs/PU), memory levels, DRAM bank organisation and timing, command
// scheduling granularity and host-link bandwidth — plus the Backend
// execution interface both architectures implement (the cycle-exact UPMEM
// core through an adapter, and the bank-level MAC model of hbmpim.go).
//
// The shape follows UniNDP's hbm-pim.yaml-vs-UPMEM comparison (SNIPPETS.md):
// one neutral description, several backends, one figure pipeline. A Desc
// travels inside engine.Point, so a point's content address covers the full
// machine it ran on and cross-architecture explorations dedupe and resume
// exactly like single-architecture ones.
package machine

import (
	"fmt"
	"math"

	"upim/internal/config"
)

// DescFormat versions the Desc JSON schema. Validate rejects descriptions
// declaring a different format, so a stale description fails loudly
// instead of silently zeroing fields added later.
const DescFormat = 1

// Architecture names. The empty string and ArchUPMEM both mean the native
// cycle-exact UPMEM core (a nil *Desc in engine.Point is the UPMEM
// fast-path: the adapter needs no description to run the existing core).
const (
	ArchUPMEM  = "upmem"
	ArchHBMPIM = "hbm-pim"
)

// Command scheduling granularities of a bank-level PIM architecture. The
// empty string means CommandAllBank.
const (
	// CommandAllBank issues each PIM command to every bank of a channel at
	// once (HBM-PIM's lockstep all-bank mode); successive commands are
	// spaced by tCCD_L.
	CommandAllBank = "all-bank"
	// CommandBankGroup walks the bank groups round-robin, issuing to one
	// group per slot; commands to different groups are spaced by tCCD_S but
	// a full rotation visits every group.
	CommandBankGroup = "bank-group"
)

// MemLevel is one level of a site's memory hierarchy (register file,
// scratchpad, bank, ...), named so profiles and docs can refer to it.
type MemLevel struct {
	Name  string `json:"name"`
	Bytes int64  `json:"bytes"`
	// BytesPerCycle is the level's port width toward the compute site.
	BytesPerCycle int `json:"bytes_per_cycle"`
}

// Desc is the architecture-neutral machine description. All counts are per
// the unit named: a "site" (the engine's DPUs axis) is one independently
// schedulable compute locus — a DPU for UPMEM, a channel for HBM-PIM — and
// the per-site compute capability is RanksPerChannel × PUsPerRank ×
// MACsPerPU lanes issuing IssueWidth commands per cycle.
type Desc struct {
	Format int    `json:"format"`
	Arch   string `json:"arch"`

	// Compute-site topology.
	Channels        int `json:"channels"`
	RanksPerChannel int `json:"ranks_per_channel"`
	PUsPerRank      int `json:"pus_per_rank"`
	MACsPerPU       int `json:"macs_per_pu"`
	IssueWidth      int `json:"issue_width"`
	FreqMHz         int `json:"freq_mhz"`

	// Memory levels, innermost first.
	MemLevels []MemLevel `json:"mem_levels"`

	// DRAM bank organisation and timing (cycles at DRAMFreqMHz).
	BankGroups    int `json:"bank_groups"`
	BanksPerGroup int `json:"banks_per_group"`
	RowBytes      int `json:"row_bytes"`
	ColumnBytes   int `json:"column_bytes"`
	DRAMFreqMHz   int `json:"dram_freq_mhz"`
	TRCD          int `json:"trcd"`
	TRP           int `json:"trp"`
	TCL           int `json:"tcl"`
	TBL           int `json:"tbl"`
	TCCDL         int `json:"tccd_l"`
	TCCDS         int `json:"tccd_s"`

	// CommandMode selects the PIM command scheduling granularity ("" =
	// all-bank).
	CommandMode string `json:"command_mode,omitempty"`

	// Host link bandwidth per site, each direction.
	HostToSiteBps float64 `json:"host_to_site_bps"`
	SiteToHostBps float64 `json:"site_to_host_bps"`
}

// Lanes returns the per-site MAC lane count — the SIMD capability one
// command activates (PUs × MACs/PU × issue width).
func (d *Desc) Lanes() int {
	return d.RanksPerChannel * d.PUsPerRank * d.MACsPerPU * d.IssueWidth
}

// Banks returns the banks per site.
func (d *Desc) Banks() int { return d.BankGroups * d.BanksPerGroup }

// ArchCost is the explorer cost of selecting this machine: log2 of the
// per-site lane count, matching the axis convention that each resource
// doubling costs +1 (the UPMEM scalar pipeline is the 0-cost baseline).
func (d *Desc) ArchCost() float64 {
	if n := d.Lanes(); n > 1 {
		return math.Log2(float64(n))
	}
	return 0
}

// Validate checks the description for internal consistency.
func (d *Desc) Validate() error {
	if d.Format != DescFormat {
		return fmt.Errorf("machine: description %q declares format %d, this simulator expects %d (descriptions must declare \"format\" explicitly)",
			d.Arch, d.Format, DescFormat)
	}
	if d.Arch == "" {
		return fmt.Errorf("machine: description needs an architecture name")
	}
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{d.Channels > 0, "channels must be positive"},
		{d.RanksPerChannel > 0, "ranks per channel must be positive"},
		{d.PUsPerRank > 0, "PUs per rank must be positive"},
		{d.MACsPerPU > 0, "MACs per PU must be positive"},
		{d.IssueWidth > 0, "issue width must be positive"},
		{d.FreqMHz > 0, "frequency must be positive"},
		{d.BankGroups > 0, "bank groups must be positive"},
		{d.BanksPerGroup > 0, "banks per group must be positive"},
		{d.ColumnBytes > 0, "column size must be positive"},
		{d.RowBytes > 0 && d.RowBytes%max(d.ColumnBytes, 1) == 0, "row size must be a positive multiple of the column size"},
		{d.DRAMFreqMHz > 0, "DRAM frequency must be positive"},
		{d.TRCD > 0 && d.TRP > 0 && d.TCL > 0 && d.TBL > 0, "DRAM timing parameters must be positive"},
		{d.TCCDL > 0 && d.TCCDS > 0, "command spacing (tCCD_L/tCCD_S) must be positive"},
		{d.HostToSiteBps > 0 && d.SiteToHostBps > 0, "host link bandwidth must be positive"},
	} {
		if !c.ok {
			return fmt.Errorf("machine: %s description: %s", d.Arch, c.what)
		}
	}
	if m := d.CommandMode; m != "" && m != CommandAllBank && m != CommandBankGroup {
		return fmt.Errorf("machine: %s description: unknown command mode %q (want %q or %q)", d.Arch, m, CommandAllBank, CommandBankGroup)
	}
	for _, m := range d.MemLevels {
		if m.Name == "" || m.Bytes <= 0 || m.BytesPerCycle <= 0 {
			return fmt.Errorf("machine: %s description: memory level %q must have a name, positive size and positive port width", d.Arch, m.Name)
		}
	}
	return nil
}

// UPMEM returns the machine description of the native cycle-exact core,
// derived from the committed Table I configuration: one scalar DPU per
// site, WRAM/IRAM scratchpads, one implicit bank behind the MRAM DMA
// engine.
func UPMEM() *Desc {
	c := config.Default()
	return &Desc{
		Format: DescFormat,
		Arch:   ArchUPMEM,

		Channels:        1,
		RanksPerChannel: 1,
		PUsPerRank:      1,
		MACsPerPU:       1,
		IssueWidth:      c.IssueWidth,
		FreqMHz:         c.FreqMHz,

		MemLevels: []MemLevel{
			{Name: "wram", Bytes: int64(c.WRAMBytes), BytesPerCycle: c.WRAMBytesPerCycle},
			{Name: "iram", Bytes: int64(c.IRAMBytes), BytesPerCycle: 8},
			{Name: "mram", Bytes: int64(c.MRAMBytes), BytesPerCycle: c.LinkBytesPerCycle},
		},

		BankGroups:    1,
		BanksPerGroup: 1,
		RowBytes:      c.RowBytes,
		ColumnBytes:   c.BurstBytes,
		DRAMFreqMHz:   c.DRAMFreqMHz,
		TRCD:          c.TRCD,
		TRP:           c.TRP,
		TCL:           c.TCL,
		TBL:           c.TBL,
		TCCDL:         4,
		TCCDS:         2,

		CommandMode: CommandAllBank,

		HostToSiteBps: c.CPUToDPUBytesPerSec,
		SiteToHostBps: c.DPUToCPUBytesPerSec,
	}
}

// HBMPIM returns an HBM-PIM-style machine description: 16 banks per
// channel behind 8 processing units of 16 MACs each, driven lockstep by
// all-bank PIM commands at the DRAM command clock — the bank-level MAC
// family (Samsung HBM-PIM / Aquabolt-XL shape) from the Kogge PIM
// bibliography.
func HBMPIM() *Desc {
	return &Desc{
		Format: DescFormat,
		Arch:   ArchHBMPIM,

		Channels:        64,
		RanksPerChannel: 1,
		PUsPerRank:      8,
		MACsPerPU:       16,
		IssueWidth:      1,
		FreqMHz:         1200,

		MemLevels: []MemLevel{
			{Name: "grf", Bytes: 2048, BytesPerCycle: 32},
			{Name: "bank", Bytes: 16 << 20, BytesPerCycle: 32},
		},

		BankGroups:    4,
		BanksPerGroup: 4,
		RowBytes:      1024,
		ColumnBytes:   32,
		DRAMFreqMHz:   1200,
		TRCD:          16,
		TRP:           16,
		TCL:           16,
		TBL:           4,
		TCCDL:         4,
		TCCDS:         2,

		CommandMode: CommandAllBank,

		HostToSiteBps: 8e9,
		SiteToHostBps: 8e9,
	}
}
