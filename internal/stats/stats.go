// Package stats collects the runtime metrics the paper's characterization
// figures are built from: issue-slot accounting with idle-reason attribution
// (Fig 6, 12), instruction mix (Fig 9), thread-level-parallelism histograms
// and timelines (Fig 7, 8), DRAM traffic (Fig 5, 16), cache, MMU and
// synchronization counters.
package stats

import (
	"fmt"
	"strings"

	"upim/internal/isa"
)

// IdleReason classifies why an issue slot went unused (paper Fig 6).
type IdleReason int

const (
	IdleMemory   IdleReason = iota // threads blocked on MRAM/DMA/cache/fault
	IdleRevolver                   // threads waiting out the revolver distance (or a RAW dependency under forwarding)
	IdleRF                         // issue slot consumed by the odd/even RF structural hazard
	NumIdleReasons
)

func (r IdleReason) String() string {
	switch r {
	case IdleMemory:
		return "Idle(Memory)"
	case IdleRevolver:
		return "Idle(Revolver)"
	case IdleRF:
		return "Idle(RF)"
	default:
		return fmt.Sprintf("idle?%d", int(r))
	}
}

// TLPBins is the number of issuable-thread histogram bins used by Fig 7:
// 0, 1-4, 5-8, 9-12, 13-16, 17-24.
const TLPBins = 6

// TLPBin maps an issuable-thread count to its Fig 7 histogram bin.
func TLPBin(issuable int) int {
	switch {
	case issuable <= 0:
		return 0
	case issuable <= 4:
		return 1
	case issuable <= 8:
		return 2
	case issuable <= 12:
		return 3
	case issuable <= 16:
		return 4
	default:
		return 5
	}
}

// TLPBinLabel names a Fig 7 histogram bin.
func TLPBinLabel(bin int) string {
	return [TLPBins]string{"0", "1~4", "5~8", "9~12", "13~16", "17~24"}[bin]
}

// DRAM aggregates bank-level counters.
type DRAM struct {
	BytesRead    uint64
	BytesWritten uint64
	ReadBursts   uint64
	WriteBursts  uint64
	RowHits      uint64
	RowMisses    uint64 // conflicts: row open to another row
	RowEmpty     uint64 // activations into a precharged bank
	Refreshes    uint64
}

// Activations counts row activations of any kind.
func (d *DRAM) Activations() uint64 { return d.RowMisses + d.RowEmpty }

// RowHitRate returns the fraction of bursts served from an open row.
func (d *DRAM) RowHitRate() float64 {
	total := d.RowHits + d.RowMisses + d.RowEmpty
	if total == 0 {
		return 0
	}
	return float64(d.RowHits) / float64(total)
}

// Cache aggregates one cache's counters.
type Cache struct {
	Hits       uint64
	Misses     uint64
	MSHRMerges uint64 // misses coalesced onto an in-flight fill
	Evictions  uint64
	Writebacks uint64 // dirty lines written back
	// Accesses counts tag/data array lookups (one per Access call, whatever
	// the outcome) — the event the energy model charges cache array energy
	// per.
	Accesses uint64
}

// HitRate returns hits / (hits + misses); MSHR merges count as hits for rate
// purposes since they do not generate DRAM traffic.
func (c *Cache) HitRate() float64 {
	total := c.Hits + c.Misses + c.MSHRMerges
	if total == 0 {
		return 0
	}
	return float64(c.Hits+c.MSHRMerges) / float64(total)
}

// MMU aggregates translation counters.
type MMU struct {
	TLBHits    uint64
	TLBMisses  uint64
	TableWalks uint64
	PageFaults uint64
}

// DPU is the full per-DPU statistics record for one kernel execution.
type DPU struct {
	// Cycles is the kernel duration in DPU cycles.
	Cycles uint64
	// Instructions counts issued instructions. Under SIMT this counts scalar
	// (per-lane) instructions, matching the paper's "max IPC 16" framing.
	Instructions uint64
	// VectorIssues counts warp-level issues under SIMT.
	VectorIssues uint64

	// IssueSlots = Cycles * IssueWidth; the breakdown below partitions it.
	IssueSlots float64
	Issued     float64
	Idle       [NumIdleReasons]float64

	Mix [isa.NumClasses]uint64

	// TLPHist[b] counts cycles whose issuable-thread count fell in bin b.
	TLPHist [TLPBins]uint64
	// IssuableSum accumulates the issuable-thread count over all cycles.
	IssuableSum uint64

	// Timeline holds the average issuable-thread count per sampling window
	// (enabled via Config.TimelineWindow).
	Timeline       []float32
	TimelineWindow int

	// Timeline accumulator for the in-progress sampling window (see
	// RecordTLP); not part of the serialized record.
	tlAcc   float64
	tlCount int

	DRAM   DRAM
	ICache Cache
	DCache Cache
	MMU    MMU

	// RFReads/RFWrites count architectural general-purpose register-file
	// accesses: one read per GPR operand actually read at issue (immediates
	// and special registers do not touch the RF) and one write per GPR
	// result written. They feed the energy model's register-file component.
	RFReads  uint64
	RFWrites uint64

	WRAMReads           uint64
	WRAMWrites          uint64
	DMAs                uint64
	DMABytes            uint64
	AcquireOK           uint64
	AcquireFail         uint64
	CoalescedRequests   uint64 // SIMT: memory requests after coalescing
	UncoalescedRequests uint64 // SIMT: lane requests before coalescing
}

// IPC returns instructions per cycle.
func (s *DPU) IPC() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.Instructions) / float64(s.Cycles)
}

// ComputeUtilization returns IPC normalized to the configured peak issue
// throughput (Fig 5 left axis / Fig 11 right axis).
func (s *DPU) ComputeUtilization(maxIPC float64) float64 {
	if maxIPC == 0 {
		return 0
	}
	return s.IPC() / maxIPC
}

// MemoryReadBandwidthUtilization returns DRAM read bandwidth as a fraction of
// peakBytesPerCycle (Fig 5 right axis; the paper normalizes to ~600 MB/s).
func (s *DPU) MemoryReadBandwidthUtilization(peakBytesPerCycle float64) float64 {
	if s.Cycles == 0 || peakBytesPerCycle == 0 {
		return 0
	}
	return float64(s.DRAM.BytesRead) / float64(s.Cycles) / peakBytesPerCycle
}

// AvgIssuable returns the average issuable-thread count (Fig 7 right axis).
func (s *DPU) AvgIssuable() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return float64(s.IssuableSum) / float64(s.Cycles)
}

// RecordTLP accounts `count` cycles each observing `issuable` schedulable
// threads: the Fig 7 histogram, the running issuable sum, and — when window
// is positive — the Fig 8 timeline, whose samples average the issuable count
// over each window of that many cycles. Bulk calls (count > 1) fill windows
// exactly as count repeated single-cycle calls would, which is what lets the
// core's fast-forward skip idle stretches without touching the figures.
func (s *DPU) RecordTLP(issuable int, count uint64, window int) {
	s.TLPHist[TLPBin(issuable)] += count
	s.IssuableSum += uint64(issuable) * count
	if window <= 0 {
		return
	}
	s.recordTimeline(issuable, count, window)
}

// recordTimeline is RecordTLP's windowed tail, split out so the histogram
// fast path stays within the inlining budget (it runs every core cycle).
func (s *DPU) recordTimeline(issuable int, count uint64, window int) {
	s.TimelineWindow = window
	for count > 0 {
		room := uint64(window - s.tlCount)
		step := min(count, room)
		s.tlAcc += float64(float64(issuable) * float64(step))
		s.tlCount += int(step)
		count -= step
		if s.tlCount == window {
			s.Timeline = append(s.Timeline, float32(s.tlAcc/float64(window)))
			s.tlAcc, s.tlCount = 0, 0
		}
	}
}

// AttributeIdle splits `slots` unused issue slots between the memory and
// revolver idle buckets in proportion to the blocked (memN) and
// dependency-waiting (revN) thread counts observed that cycle — the paper's
// Fig 6 attribution rule. With no waiting threads the leftover slots are a
// revolver artifact of the just-issued thread itself.
//
// When only one kind of thread is waiting the whole amount goes to its bucket
// with no arithmetic: slots is always a whole number of issue slots, so
// slots*n/n is exactly slots and the other bucket's share is exactly zero.
func (s *DPU) AttributeIdle(slots float64, memN, revN int) {
	if memN == 0 {
		s.Idle[IdleRevolver] += slots
		return
	}
	if revN == 0 {
		s.Idle[IdleMemory] += slots
		return
	}
	tot := float64(memN + revN)
	s.Idle[IdleMemory] += slots * float64(memN) / tot
	s.Idle[IdleRevolver] += slots * float64(revN) / tot
}

// Breakdown returns the issue-slot breakdown as fractions that sum to ~1:
// issued, memory, revolver, RF (Fig 6's stacking order).
func (s *DPU) Breakdown() (issued, mem, rev, rf float64) {
	if s.IssueSlots == 0 {
		return 0, 0, 0, 0
	}
	t := s.IssueSlots
	return s.Issued / t, s.Idle[IdleMemory] / t, s.Idle[IdleRevolver] / t, s.Idle[IdleRF] / t
}

// MixFractions returns per-class instruction fractions (Fig 9).
func (s *DPU) MixFractions() [isa.NumClasses]float64 {
	var out [isa.NumClasses]float64
	if s.Instructions == 0 {
		return out
	}
	for i, n := range s.Mix {
		out[i] = float64(n) / float64(s.Instructions)
	}
	return out
}

// Add accumulates o into s (used when aggregating DPUs of a rank). Timeline
// data is not merged — it is per-DPU by nature.
func (s *DPU) Add(o *DPU) {
	s.Cycles = max(s.Cycles, o.Cycles)
	s.Instructions += o.Instructions
	s.VectorIssues += o.VectorIssues
	s.IssueSlots += o.IssueSlots
	s.Issued += o.Issued
	for i := range s.Idle {
		s.Idle[i] += o.Idle[i]
	}
	for i := range s.Mix {
		s.Mix[i] += o.Mix[i]
	}
	for i := range s.TLPHist {
		s.TLPHist[i] += o.TLPHist[i]
	}
	s.IssuableSum += o.IssuableSum
	s.DRAM.BytesRead += o.DRAM.BytesRead
	s.DRAM.BytesWritten += o.DRAM.BytesWritten
	s.DRAM.ReadBursts += o.DRAM.ReadBursts
	s.DRAM.WriteBursts += o.DRAM.WriteBursts
	s.DRAM.RowHits += o.DRAM.RowHits
	s.DRAM.RowMisses += o.DRAM.RowMisses
	s.DRAM.RowEmpty += o.DRAM.RowEmpty
	s.DRAM.Refreshes += o.DRAM.Refreshes
	addCache(&s.ICache, &o.ICache)
	addCache(&s.DCache, &o.DCache)
	s.MMU.TLBHits += o.MMU.TLBHits
	s.MMU.TLBMisses += o.MMU.TLBMisses
	s.MMU.TableWalks += o.MMU.TableWalks
	s.MMU.PageFaults += o.MMU.PageFaults
	s.RFReads += o.RFReads
	s.RFWrites += o.RFWrites
	s.WRAMReads += o.WRAMReads
	s.WRAMWrites += o.WRAMWrites
	s.DMAs += o.DMAs
	s.DMABytes += o.DMABytes
	s.AcquireOK += o.AcquireOK
	s.AcquireFail += o.AcquireFail
	s.CoalescedRequests += o.CoalescedRequests
	s.UncoalescedRequests += o.UncoalescedRequests
}

func addCache(dst, src *Cache) {
	dst.Hits += src.Hits
	dst.Misses += src.Misses
	dst.MSHRMerges += src.MSHRMerges
	dst.Evictions += src.Evictions
	dst.Writebacks += src.Writebacks
	dst.Accesses += src.Accesses
}

// Counter is one named metric of a statistics record.
type Counter struct {
	Name  string
	Value float64
}

// Counters flattens the record into a stable, named metric list — the
// serialization contract the artifact exporters build on. The order and
// names are fixed: appending new counters at the end is safe, renaming or
// reordering breaks committed reference artifacts and downstream CSV/JSON
// consumers.
func (s *DPU) Counters() []Counter {
	return []Counter{
		{"cycles", float64(s.Cycles)},
		{"instructions", float64(s.Instructions)},
		{"vector_issues", float64(s.VectorIssues)},
		{"ipc", s.IPC()},
		{"issue_slots", s.IssueSlots},
		{"issued", s.Issued},
		{"idle_memory", s.Idle[IdleMemory]},
		{"idle_revolver", s.Idle[IdleRevolver]},
		{"idle_rf", s.Idle[IdleRF]},
		{"avg_issuable", s.AvgIssuable()},
		{"dram_bytes_read", float64(s.DRAM.BytesRead)},
		{"dram_bytes_written", float64(s.DRAM.BytesWritten)},
		{"dram_read_bursts", float64(s.DRAM.ReadBursts)},
		{"dram_write_bursts", float64(s.DRAM.WriteBursts)},
		{"dram_row_hits", float64(s.DRAM.RowHits)},
		{"dram_row_misses", float64(s.DRAM.RowMisses)},
		{"dram_row_empty", float64(s.DRAM.RowEmpty)},
		{"dram_refreshes", float64(s.DRAM.Refreshes)},
		{"icache_hits", float64(s.ICache.Hits)},
		{"icache_misses", float64(s.ICache.Misses)},
		{"dcache_hits", float64(s.DCache.Hits)},
		{"dcache_misses", float64(s.DCache.Misses)},
		{"dcache_mshr_merges", float64(s.DCache.MSHRMerges)},
		{"dcache_evictions", float64(s.DCache.Evictions)},
		{"dcache_writebacks", float64(s.DCache.Writebacks)},
		{"tlb_hits", float64(s.MMU.TLBHits)},
		{"tlb_misses", float64(s.MMU.TLBMisses)},
		{"table_walks", float64(s.MMU.TableWalks)},
		{"page_faults", float64(s.MMU.PageFaults)},
		{"wram_reads", float64(s.WRAMReads)},
		{"wram_writes", float64(s.WRAMWrites)},
		{"dmas", float64(s.DMAs)},
		{"dma_bytes", float64(s.DMABytes)},
		{"acquire_ok", float64(s.AcquireOK)},
		{"acquire_fail", float64(s.AcquireFail)},
		{"coalesced_requests", float64(s.CoalescedRequests)},
		{"uncoalesced_requests", float64(s.UncoalescedRequests)},
		// Energy-model event counters (appended in PR 5; order above is frozen).
		{"rf_reads", float64(s.RFReads)},
		{"rf_writes", float64(s.RFWrites)},
		{"icache_accesses", float64(s.ICache.Accesses)},
		{"dcache_accesses", float64(s.DCache.Accesses)},
		{"dram_activations", float64(s.DRAM.Activations())},
	}
}

// Summary renders a human-readable report (used by cmd/upimulator).
func (s *DPU) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycles           %d\n", s.Cycles)
	fmt.Fprintf(&b, "instructions     %d (IPC %.3f)\n", s.Instructions, s.IPC())
	issued, mem, rev, rf := s.Breakdown()
	fmt.Fprintf(&b, "issue slots      issued %.1f%%  idle(mem) %.1f%%  idle(revolver) %.1f%%  idle(RF) %.1f%%\n",
		issued*100, mem*100, rev*100, rf*100)
	if s.VectorIssues > 0 {
		// Fig 11: the vector unit's parallelism is counted in lanes, and the
		// "AC" step is the request reduction shown here.
		fmt.Fprintf(&b, "avg issuable     %.2f lanes\n", s.AvgIssuable())
		fmt.Fprintf(&b, "SIMT             %d vector issues, %.2f active lanes/issue; %d lane requests -> %d bank requests after coalescing\n",
			s.VectorIssues, float64(s.Instructions)/float64(s.VectorIssues), s.UncoalescedRequests, s.CoalescedRequests)
	} else {
		fmt.Fprintf(&b, "avg issuable     %.2f threads\n", s.AvgIssuable())
	}
	mix := s.MixFractions()
	fmt.Fprintf(&b, "instruction mix ")
	for c := 0; c < isa.NumClasses; c++ {
		fmt.Fprintf(&b, " %s %.1f%%", isa.Class(c), mix[c]*100)
	}
	fmt.Fprintf(&b, "\n")
	fmt.Fprintf(&b, "DRAM             read %d B, written %d B, row hit rate %.1f%%\n",
		s.DRAM.BytesRead, s.DRAM.BytesWritten, s.DRAM.RowHitRate()*100)
	if s.ICache.Hits+s.ICache.Misses > 0 || s.DCache.Hits+s.DCache.Misses > 0 {
		fmt.Fprintf(&b, "caches           I$ %.1f%% hit, D$ %.1f%% hit (%d merges, %d writebacks)\n",
			s.ICache.HitRate()*100, s.DCache.HitRate()*100, s.DCache.MSHRMerges, s.DCache.Writebacks)
	}
	if s.MMU.TLBHits+s.MMU.TLBMisses > 0 {
		fmt.Fprintf(&b, "MMU              TLB hits %d misses %d walks %d faults %d\n",
			s.MMU.TLBHits, s.MMU.TLBMisses, s.MMU.TableWalks, s.MMU.PageFaults)
	}
	fmt.Fprintf(&b, "WRAM             %d reads, %d writes; DMA %d ops / %d B\n",
		s.WRAMReads, s.WRAMWrites, s.DMAs, s.DMABytes)
	if s.AcquireOK+s.AcquireFail > 0 {
		fmt.Fprintf(&b, "locks            %d acquired, %d spin retries\n", s.AcquireOK, s.AcquireFail)
	}
	return b.String()
}
