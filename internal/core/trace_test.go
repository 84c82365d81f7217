package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"testing"

	"upim/internal/config"
	"upim/internal/linker"
	"upim/internal/mem"
)

var update = flag.Bool("update", false, "rewrite testdata/trace.golden")

// TestTraceGolden pins the order of the scheduler's decisions, not only their
// totals: per point, the SHA-256 of the full issue trace (cycle, tasklet, pc,
// op, RF conflict) and of every raw statistic, floats by bit pattern — Idle[]
// is a float sum, so it also pins how each idle stretch is cut into
// AttributeIdle calls. The points are sched_test.go's six random kernels
// under each ILP feature set, the cache organisation at 1/8/16 tasklets, and
// the vector engine on a lane-strided and a divergent kernel with the
// coalescer off and on, at 2, 3 (the last one ragged) and 11 warps.
// Regenerate (-update) only for a change that is meant to move simulated
// behaviour.
func TestTraceGolden(t *testing.T) {
	type point struct {
		label string
		obj   *linker.Object
		cfg   config.Config
		setup func(*DPU)
	}
	var pts []point
	for seed := int64(0); seed < 6; seed++ {
		// The draws of TestSchedulerInvariantsRandomKernels, in its order.
		r := rand.New(rand.NewSource(seed))
		obj := randomKernel(r, 40+int32(r.Intn(100)))
		tasklets := []int{1, 3, 16, 24}[r.Intn(4)]
		for _, ilp := range []string{"", "D", "R", "S", "DRSF"} {
			cfg := config.Default().WithILP(ilp)
			cfg.NumTasklets = tasklets
			pts = append(pts, point{fmt.Sprintf("random seed%d t%d ilp=%s", seed, tasklets, ilp), obj, cfg, nil})
		}
	}
	for _, n := range []int{1, 8, 16} {
		cfg := config.Default()
		cfg.Mode = config.ModeCache
		cfg.NumTasklets = n
		pts = append(pts, point{fmt.Sprintf("cachesum t%d", n), cacheSumKernel(), cfg, func(d *DPU) {
			writeArgs(t, d, mem.MRAMBase, 2048)
		}})
	}
	for _, lanes := range []int{32, 40, 176} {
		for _, coalesce := range []bool{false, true} {
			cfg := simtConfig(lanes)
			cfg.SIMTCoalesce = coalesce
			pts = append(pts,
				point{fmt.Sprintf("simtsum l%d coalesce=%v", lanes, coalesce), simtSumKernel(), cfg, func(d *DPU) {
					writeArgs(t, d, mem.MRAMBase, 2048, mem.MRAMBase+1<<20)
				}},
				point{fmt.Sprintf("simtstore l%d coalesce=%v", lanes, coalesce), simtStoreKernel(), cfg, func(d *DPU) {
					writeArgs(t, d, mem.MRAMBase+4096)
				}},
			)
		}
	}

	var out bytes.Buffer
	for _, p := range pts {
		p.cfg.TraceIssues = true
		p.cfg.TimelineWindow = 64
		d := buildRun(t, p.obj, p.cfg, p.setup)
		trace := sha256.New()
		for _, e := range d.Trace() {
			fmt.Fprintf(trace, "%d %d %d %d %t\n", e.Cycle, e.Tasklet, e.PC, e.Op, e.RFConflict)
		}
		st, raw := d.Stats(), sha256.New()
		for _, c := range st.Counters() {
			fmt.Fprintf(raw, "%s=%016x\n", c.Name, math.Float64bits(c.Value))
		}
		fmt.Fprintf(raw, "%016x %016x", math.Float64bits(st.IssueSlots), math.Float64bits(st.Issued))
		for _, v := range st.Idle {
			fmt.Fprintf(raw, " %016x", math.Float64bits(v))
		}
		fmt.Fprintf(raw, "\n%v %d %v\n", st.TLPHist, st.IssuableSum, st.Mix)
		for _, v := range st.Timeline {
			fmt.Fprintf(raw, "%08x ", math.Float32bits(v))
		}
		fmt.Fprintf(&out, "%s cycles=%d events=%d trace=%x stats=%x\n",
			p.label, st.Cycles, len(d.Trace()), trace.Sum(nil), raw.Sum(nil))
	}

	const path = "testdata/trace.golden"
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, wantLines := bytes.Split(out.Bytes(), []byte("\n")), bytes.Split(want, []byte("\n"))
	if len(got) != len(wantLines) {
		t.Fatalf("%s: %d lines, golden has %d", path, len(got), len(wantLines))
	}
	for i := range wantLines {
		if !bytes.Equal(got[i], wantLines[i]) {
			t.Errorf("%s line %d drifted:\n got %s\nwant %s", path, i+1, got[i], wantLines[i])
		}
	}
}
