package prim

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math"
	"testing"

	"upim/internal/config"
	"upim/internal/stats"
)

// rawStats writes every field of one DPU's statistics record that a kernel
// run produces, floats by bit pattern: Counters() (exactly round-tripped),
// the float accumulators Counters() only shows derived, the TLP histogram
// and the instruction mix.
func rawStats(out *bytes.Buffer, s *stats.DPU) {
	for _, c := range s.Counters() {
		fmt.Fprintf(out, " %s=%016x", c.Name, math.Float64bits(c.Value))
	}
	fmt.Fprintf(out, " slots=%016x issued=%016x", math.Float64bits(s.IssueSlots), math.Float64bits(s.Issued))
	for _, v := range s.Idle {
		fmt.Fprintf(out, " idle=%016x", math.Float64bits(v))
	}
	fmt.Fprintf(out, " tlp=%v sum=%d mix=%v\n", s.TLPHist, s.IssuableSum, s.Mix)
}

// TestRawStatsGolden holds a speed-only change of the cycle core to what it
// owes: every statistic of every DPU identical, not merely every derived
// figure cell within 1e-12 (the refdata oracle) or the aggregate counters at
// the default configuration (the transfer ledger). The matrix is VA, BS,
// GEMV, RED × scratchpad/cache × base/DRSF × 1/16 tasklets × link x1/x4 on
// one DPU, plus one MMU, one SIMT and one 4-DPU point, then the SIMT matrix
// (GEMV, the one benchmark with a SIMT host, × 1/4/16 warps × coalescer
// off/on × DRAM clock x1/x4/x16 — Fig 11's four SIMT designs are its 16-warp
// rows, its base the scalar t16 row above); each point's per-DPU records are hashed into one line of testdata/stats.golden. Regenerate
// (-update) only for a change that is meant to move simulated statistics.
func TestRawStatsGolden(t *testing.T) {
	type point struct {
		label string
		bench string
		cfg   config.Config
		dpus  int
	}
	var pts []point
	for _, bench := range []string{"VA", "BS", "GEMV", "RED"} {
		for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache} {
			for _, ilp := range []string{"", "DRSF"} {
				for _, tasklets := range []int{1, 16} {
					for _, link := range []int{1, 4} {
						cfg := config.Default().WithILP(ilp)
						cfg.Mode = mode
						cfg.NumTasklets = tasklets
						cfg.LinkBytesPerCycle *= link
						pts = append(pts, point{
							fmt.Sprintf("%s %v ilp=%s t%d link%d", bench, mode, ilp, tasklets, link),
							bench, cfg, 1,
						})
					}
				}
			}
		}
	}
	mmu := config.Default()
	mmu.MMU.Enable = true
	mmu.MMU.Prefault = false // outputs are demand-faulted on first touch, as the MMU study runs it
	simt := config.Default()
	simt.Mode = config.ModeSIMT
	simt.NumTasklets = 64
	simt.SIMTCoalesce = true
	pts = append(pts,
		point{"VA scratchpad mmu", "VA", mmu, 1},
		point{"GEMV simt t64 coalesce", "GEMV", simt, 1},
		point{"BS scratchpad d4", "BS", config.Default(), 4},
	)
	for _, warps := range []int{1, 4, 16} {
		for _, coalesce := range []bool{false, true} {
			for _, dram := range []int{1, 4, 16} {
				cfg := config.Default()
				cfg.Mode = config.ModeSIMT
				cfg.NumTasklets = warps * cfg.SIMTWidth
				cfg.SIMTCoalesce = coalesce
				cfg.DRAMFreqMHz *= dram
				pts = append(pts, point{
					fmt.Sprintf("GEMV simt w%d coalesce=%v dram%d", warps, coalesce, dram),
					"GEMV", cfg, 1,
				})
			}
		}
	}

	var out, raw bytes.Buffer
	for _, p := range pts {
		res, err := runPoint(p.bench, p.cfg, p.dpus, ScaleTiny)
		if err != nil {
			t.Fatalf("%s: %v", p.label, err)
		}
		raw.Reset()
		for i := range res.PerDPU {
			rawStats(&raw, &res.PerDPU[i])
		}
		fmt.Fprintf(&out, "%s %x\n", p.label, sha256.Sum256(raw.Bytes()))
	}
	checkGolden(t, "testdata/stats.golden", out.Bytes())
}
