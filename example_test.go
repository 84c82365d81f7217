package upim_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"log"
	"maps"
	"os"
	"slices"

	"upim"
)

// The paper's Fig 2 running example, element-wise vector addition, written
// in textual UPMEM-style assembly: each tasklet takes a contiguous slice of
// the input, stages 128-element chunks of A and B into its WRAM buffers by
// DMA, adds them, and writes the result chunk back to MRAM (Fig 2(b)).
const vaSource = `
; args: 0=A 1=B 2=C (absolute MRAM addresses) 3=n
.alloc bufA 8192        ; 16 tasklets x 128 elements
.alloc bufB 8192

        lw   r0, zero, 0        ; A
        lw   r1, zero, 4        ; B
        lw   r2, zero, 8        ; C
        lw   r3, zero, 12       ; n
        ; per-tasklet range: chunk = ceil(n/NTH) rounded to 2
        add  r6, r3, nth
        sub  r6, r6, 1
        div  r6, r6, nth
        add  r6, r6, 1
        and  r6, r6, -2
        mul  r4, r6, id         ; start
        add  r5, r4, r6         ; end
        jle  r5, r3, clamped
        mov  r5, r3
clamped:
        jle  r4, r3, clamped2
        mov  r4, r3
clamped2:
        movi r7, bufA
        movi r8, bufB
        mul  r9, id, 512
        add  r7, r7, r9
        add  r8, r8, r9
chunk:  jge  r4, r5, done
        sub  r9, r5, r4         ; elems left
        jlt  r9, 128, sized
        movi r9, 128
sized:  lsl  r10, r9, 2         ; bytes
        lsl  r11, r4, 2
        add  r12, r0, r11
        ldma r7, r12, r10       ; stage A chunk
        add  r12, r1, r11
        ldma r8, r12, r10       ; stage B chunk
        mov  r13, r7
        mov  r14, r8
        add  r15, r7, r10
inner:  lw   r16, r13, 0
        lw   r17, r14, 0
        add  r16, r16, r17
        sw   r16, r13, 0
        add  r13, r13, 4
        add  r14, r14, 4
        jlt  r13, r15, inner
        add  r12, r2, r11
        sdma r7, r12, r10       ; write C chunk
        add  r4, r4, r9
        jump chunk
done:   stop
`

// The toolchain path for hand-written kernels: assemble and link the Fig 2
// vector add, load it onto one simulated DPU, run it with full cycle-level
// statistics, and verify the result on the host. The verified PrIM
// workloads skip this plumbing: see NewRunner.
func ExampleAssemble() {
	must := func(err error) {
		if err != nil {
			log.Fatal(err)
		}
	}
	const n = 4096
	obj, err := upim.Assemble("quickstart-va", vaSource)
	must(err)
	cfg := upim.DefaultConfig()
	cfg.NumTasklets = 16
	sys, err := upim.NewSystem(obj, cfg, 1)
	must(err)

	// Host side (Fig 2(a)): copy the inputs into MRAM, pass pointers through
	// the argument block, launch, and read the result back. Launch takes a
	// context, so a stuck kernel can be cancelled or deadline-bounded.
	a, b := make([]byte, 4*n), make([]byte, 4*n)
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint32(a[4*i:], uint32(i))
		binary.LittleEndian.PutUint32(b[4*i:], uint32(3*i+1))
	}
	const aOff, bOff, cOff = 0, 4 * n, 8 * n
	must(sys.CopyToMRAM(0, aOff, a))
	must(sys.CopyToMRAM(0, bOff, b))
	must(sys.WriteArgs(0, upim.MRAMBase(aOff), upim.MRAMBase(bOff), upim.MRAMBase(cOff), n))
	must(sys.Launch(context.Background()))
	sys.SetPhase(upim.PhaseOutput)
	out, err := sys.ReadMRAM(0, cOff, 4*n)
	must(err)
	for i := 0; i < n; i++ {
		if got := binary.LittleEndian.Uint32(out[4*i:]); got != uint32(4*i+1) {
			log.Fatalf("c[%d] = %d, want %d", i, got, 4*i+1)
		}
	}
	fmt.Printf("vector add of %d elements verified on 1 DPU x %d tasklets\n\n", n, cfg.NumTasklets)
	fmt.Print(sys.DPU(0).Stats().Summary())
	rep := sys.Report()
	fmt.Printf("\nmodeled time: kernel %.1f us, CPU->DPU %.1f us, DPU->CPU %.1f us\n",
		rep.KernelSeconds*1e6, rep.TransferSeconds[0]*1e6, rep.TransferSeconds[1]*1e6)
	// Output:
	// vector add of 4096 elements verified on 1 DPU x 16 tasklets
	//
	// cycles           44476
	// instructions     29536 (IPC 0.664)
	// issue slots      issued 66.4%  idle(mem) 19.4%  idle(revolver) 4.8%  idle(RF) 9.4%
	// avg issuable     3.28 threads
	// instruction mix  Arithmetic 42.8% Arithmetic with branch 14.2% Multiply, divide 0.2% Load/store to scratchpad 41.8% DMA to/from DRAM 0.3% Synchronization 0.0% etc. 0.6%
	// DRAM             read 32768 B, written 16384 B, row hit rate 98.4%
	// WRAM             8256 reads, 4096 writes; DMA 96 ops / 49152 B
	//
	// modeled time: kernel 127.1 us, CPU->DPU 110.8 us, DPU->CPU 260.1 us
}

// Strong scaling, the paper's Fig 10 methodology: streaming and
// communication-bound workloads across 1/4/16/64 DPUs. Kernels shrink with
// the DPU count while CPU<->DPU transfer becomes the wall, and BS/BFS scale
// sub-linearly because their communication grows with the DPU count. The 16
// points run concurrently, and each benchmark's kernel is assembled and
// linked once for all four DPU counts.
func ExampleRunner_Sweep() {
	names, dpuCounts := []string{"VA", "RED", "BS", "BFS"}, []int{1, 4, 16, 64}
	r, err := upim.NewRunner(upim.WithTasklets(16), upim.WithScale(upim.ScaleSmall))
	if err != nil {
		log.Fatal(err)
	}
	var points []upim.Point
	for _, name := range names {
		for _, dpus := range dpuCounts {
			points = append(points, upim.Point{Benchmark: name, DPUs: dpus})
		}
	}
	// Results stream in completion order; collect by index.
	results := make([]*upim.Result, len(points))
	for sr := range r.Sweep(context.Background(), points) {
		if sr.Err != nil {
			log.Fatal(sr.Err)
		}
		results[sr.Index] = sr.Result
	}

	for i, name := range names {
		fmt.Printf("=== %s ===\n", name)
		fmt.Printf("%6s %12s %12s %12s %12s %10s\n",
			"DPUs", "kernel ms", "cpu->dpu ms", "dpu->cpu ms", "dpu<->dpu ms", "speedup")
		base := results[i*len(dpuCounts)].Report.Total()
		for _, res := range results[i*len(dpuCounts) : (i+1)*len(dpuCounts)] {
			rep := res.Report
			fmt.Printf("%6d %12.3f %12.3f %12.3f %12.3f %9.2fx\n", res.DPUs, rep.KernelSeconds*1e3,
				rep.TransferSeconds[0]*1e3, rep.TransferSeconds[1]*1e3, rep.TransferSeconds[2]*1e3, base/rep.Total())
		}
		fmt.Println()
	}
	cs := r.CacheStats()
	fmt.Printf("(%d points, %d kernel builds, %d cache hits)\n", len(points), cs.Builds, cs.Hits)
	// Output:
	// === VA ===
	//   DPUs    kernel ms  cpu->dpu ms  dpu->cpu ms dpu<->dpu ms    speedup
	//      1        1.564        1.771        4.161        0.000      1.00x
	//      4        0.419        0.443        1.040        0.000      3.94x
	//     16        0.127        0.111        0.260        0.000     15.06x
	//     64        0.035        0.028        0.065        0.000     58.65x
	//
	// === RED ===
	//   DPUs    kernel ms  cpu->dpu ms  dpu->cpu ms dpu<->dpu ms    speedup
	//      1        1.555        1.771        0.000        0.000      1.00x
	//      4        0.401        0.443        0.000        0.000      3.94x
	//     16        0.113        0.111        0.000        0.000     14.90x
	//     64        0.040        0.028        0.000        0.000     48.80x
	//
	// === BS ===
	//   DPUs    kernel ms  cpu->dpu ms  dpu->cpu ms dpu<->dpu ms    speedup
	//      1        7.157        0.471        0.130        0.000      1.00x
	//      4        1.798        0.450        0.033        0.000      3.40x
	//     16        0.456        0.445        0.008        0.000      8.54x
	//     64        0.118        0.443        0.002        0.000     13.76x
	//
	// === BFS ===
	//   DPUs    kernel ms  cpu->dpu ms  dpu->cpu ms dpu<->dpu ms    speedup
	//      1        2.780        0.279        0.000        0.045      1.00x
	//      4        0.979        0.072        0.000        0.045      2.83x
	//     16        0.896        0.021        0.000        0.045      3.23x
	//     64        0.896        0.012        0.000        0.045      3.26x
	//
	// (16 points, 4 kernel builds, 24 cache hits)
}

// Cache vs scratchpad, case study 4 (Fig 15/16): BS statically overfetches
// 256 B per probe under the scratchpad-centric model, so an on-demand cache
// slashes its DRAM traffic; UNI's predictable streaming is the opposite,
// where explicit DMA staging moves fewer bytes. Neither design wins
// everywhere, which is the paper's point. The memory model is chosen per
// sweep point with an option override.
func ExampleWithMode() {
	r, err := upim.NewRunner(upim.WithTasklets(16), upim.WithScale(upim.ScaleSmall))
	if err != nil {
		log.Fatal(err)
	}
	names, modes := []string{"BS", "UNI"}, []upim.Mode{upim.ModeScratchpad, upim.ModeCache}
	var points []upim.Point
	for _, name := range names {
		for _, mode := range modes {
			points = append(points, upim.Point{Benchmark: name, Options: []upim.RunnerOption{upim.WithMode(mode)}})
		}
	}
	results := make([]*upim.Result, len(points))
	for sr := range r.Sweep(context.Background(), points) {
		if sr.Err != nil {
			log.Fatal(sr.Err)
		}
		results[sr.Index] = sr.Result
	}

	// compare renders how cache (c) relates to scratchpad (s) as a factor
	// and a word.
	compare := func(c, s float64, less, more string) (float64, string) {
		if c < s {
			return s / c, less
		}
		return c / s, more
	}
	for i, name := range names {
		fmt.Printf("=== %s (16 tasklets, small scale) ===\n", name)
		for _, res := range results[2*i : 2*i+2] {
			st := &res.Stats
			fmt.Printf("  %-11s %10d cycles, %8.2f MB read from DRAM", res.Mode, st.Cycles, float64(st.DRAM.BytesRead)/1e6)
			if res.Mode == upim.ModeCache {
				fmt.Printf("  (D$ hit rate %.1f%%, %d MSHR merges)", st.DCache.HitRate()*100, st.DCache.MSHRMerges)
			}
			fmt.Println()
		}
		spad, cache := &results[2*i].Stats, &results[2*i+1].Stats
		bytesX, bytesWord := compare(float64(cache.DRAM.BytesRead), float64(spad.DRAM.BytesRead), "fewer", "more")
		timeX, timeWord := compare(float64(cache.Cycles), float64(spad.Cycles), "faster", "slower")
		fmt.Printf("  cache reads %.1fx %s DRAM bytes and runs %.2fx %s\n\n", bytesX, bytesWord, timeX, timeWord)
	}
	// Output:
	// === BS (16 tasklets, small scale) ===
	//   scratchpad     2505118 cycles,     5.00 MB read from DRAM
	//   cache           304167 cycles,     0.25 MB read from DRAM  (D$ hit rate 88.6%, 83 MSHR merges)
	//   cache reads 19.6x fewer DRAM bytes and runs 8.24x faster
	//
	// === UNI (16 tasklets, small scale) ===
	//   scratchpad     1299472 cycles,     0.52 MB read from DRAM
	//   cache          1136858 cycles,     0.99 MB read from DRAM  (D$ hit rate 93.8%, 0 MSHR merges)
	//   cache reads 1.9x more DRAM bytes and runs 1.14x faster
}

// Cross-architecture pathfinding: the same workloads explored on the
// cycle-exact UPMEM DPU core and the HBM-PIM-style bank-level MAC model in
// one design space, with a Pareto frontier over modeled time, energy and
// hardware cost. The arch axis attaches a machine description to each
// point; architectures never share cached results, and a nil profile
// prices each point's energy under its architecture's own default.
func ExampleExplore() {
	space := upim.NewDesignSpace([]string{"GEMV", "VA"}, upim.AxisArchs("upmem", "hbm-pim"), upim.AxisDPUs(1, 2))
	space.Scale = upim.ScaleTiny
	x, err := upim.Explore(context.Background(), space, upim.ExploreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	x.ParetoTable(upim.GoalTime(), upim.GoalEnergy(nil), upim.GoalCost()).Fprint(os.Stdout)

	// Per point: the MAC array wins time and energy outright on the kernels
	// it can run, at a lane-count cost the frontier keeps visible.
	for _, o := range x.Outcomes {
		if o.Err != nil {
			log.Fatalf("%s %s: %v", o.Point.Benchmark, o.Point.Design, o.Err)
		}
		arch := o.Result.Arch
		if arch == "" {
			arch = "upmem"
		}
		e := o.Result.Energy(nil)
		fmt.Printf("%-5s %-8s sites=%d cost=%.0f  kernel=%8.1fus total=%8.1fus  %7.2fuJ (%s)\n",
			o.Point.Benchmark, arch, o.Result.DPUs, o.Point.Cost,
			o.Result.Report.KernelSeconds*1e6, o.Result.Report.Total()*1e6, e.MicroJoules(), e.Profile)
	}
	// Output:
	// == Pathfinding (Pareto): per-benchmark Pareto frontier: total time vs energy vs cost ==
	// benchmark  design               total time (ms)  energy (uJ)  cost  speedup vs base
	// GEMV       arch=upmem dpus=1    0.35             16.3         0     1.00
	// GEMV       arch=upmem dpus=2    0.18             16.7         1.00  1.94
	// GEMV       arch=hbm-pim dpus=1  0.00             8.82         7.00  77.2
	// GEMV       arch=hbm-pim dpus=2  0.00             8.84         8.00  153
	// VA         arch=upmem dpus=1    0.50             17.3         0     1.00
	// VA         arch=upmem dpus=2    0.25             17.5         1.00  1.96
	// VA         arch=hbm-pim dpus=1  0.01             12.9         7.00  76.0
	// VA         arch=hbm-pim dpus=2  0.00             12.9         8.00  151
	//
	// GEMV  upmem    sites=1 cost=0  kernel=   226.9us total=   346.7us    16.32uJ (pim-2xnm-illustrative-v1)
	// GEMV  upmem    sites=2 cost=1  kernel=   118.1us total=   178.4us    16.69uJ (pim-2xnm-illustrative-v1)
	// GEMV  hbm-pim  sites=1 cost=7  kernel=     0.3us total=     4.5us     8.82uJ (hbm-pim-bank-mac-illustrative-v1)
	// GEMV  hbm-pim  sites=2 cost=8  kernel=     0.2us total=     2.3us     8.84uJ (hbm-pim-bank-mac-illustrative-v1)
	// VA    upmem    sites=1 cost=0  kernel=   127.1us total=   497.9us    17.26uJ (pim-2xnm-illustrative-v1)
	// VA    upmem    sites=2 cost=1  kernel=    68.5us total=   253.9us    17.47uJ (pim-2xnm-illustrative-v1)
	// VA    hbm-pim  sites=1 cost=7  kernel=     0.4us total=     6.5us    12.89uJ (hbm-pim-bank-mac-illustrative-v1)
	// VA    hbm-pim  sites=2 cost=8  kernel=     0.2us total=     3.3us    12.91uJ (hbm-pim-bank-mac-illustrative-v1)
}

// Energy-aware pathfinding: the design space the paper judges by time
// alone, re-judged by energy and energy-delay product. The ILP ladder and a
// faster MRAM link both buy speed but spend silicon and joules differently
// per workload, so the time/cost, energy/cost and EDP/cost frontiers can
// pick different designs. (At tiny scale leakage dominates and the
// frontiers agree; at ScaleSmall they diverge.) Energy is priced under the
// committed default TechProfile; pass one from LoadTechProfile to re-judge.
func ExampleParetoFront() {
	space := upim.NewDesignSpace([]string{"VA", "GEMV"},
		upim.AxisTasklets(4, 16), upim.AxisILP("base", "DRSF"), upim.AxisLinkScale(1, 4))
	space.Scale = upim.ScaleTiny
	x, err := upim.Explore(context.Background(), space, upim.ExploreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, goals := range [][]upim.ExploreGoal{
		{upim.GoalTime(), upim.GoalCost()},
		{upim.GoalEnergy(nil), upim.GoalCost()},
		{upim.GoalEDP(nil), upim.GoalCost()},
	} {
		fmt.Printf("=== frontier: %s vs %s ===\n", goals[0].Name, goals[1].Name)
		for _, bench := range space.Benchmarks {
			var group []upim.ExploreOutcome // dominance only within one workload
			for _, o := range x.Outcomes {
				if o.Point.Benchmark == bench {
					group = append(group, o)
				}
			}
			for _, o := range upim.ParetoFront(group, goals...) {
				rep, total := upim.EnergyOf(o.Result, nil), o.Result.Report.Total()
				fmt.Printf("  %-5s %-34s cost %.0f  %8.2f ms  %8.2f uJ  %8.2f mW\n", bench, o.Point.Design,
					o.Point.Cost, total*1e3, rep.MicroJoules(), rep.PowerWatts(total)*1e3)
			}
		}
	}
	fmt.Println()
	x.EnergyTable(nil).Fprint(os.Stdout)
	// Output:
	// === frontier: total time vs cost ===
	//   VA    tasklets=16 ilp=base link=x1       cost 0      0.50 ms     17.26 uJ     34.67 mW
	//   VA    tasklets=16 ilp=base link=x4       cost 2      0.48 ms     16.63 uJ     34.87 mW
	//   VA    tasklets=16 ilp=DRSF link=x1       cost 4      0.44 ms     15.56 uJ     35.26 mW
	//   VA    tasklets=16 ilp=DRSF link=x4       cost 6      0.40 ms     14.28 uJ     35.83 mW
	//   GEMV  tasklets=16 ilp=base link=x1       cost 0      0.35 ms     16.32 uJ     47.09 mW
	//   GEMV  tasklets=16 ilp=base link=x4       cost 2      0.34 ms     16.27 uJ     47.18 mW
	//   GEMV  tasklets=16 ilp=DRSF link=x1       cost 4      0.17 ms     11.02 uJ     64.84 mW
	//   GEMV  tasklets=16 ilp=DRSF link=x4       cost 6      0.16 ms     10.85 uJ     66.08 mW
	// === frontier: energy vs cost ===
	//   VA    tasklets=16 ilp=base link=x1       cost 0      0.50 ms     17.26 uJ     34.67 mW
	//   VA    tasklets=16 ilp=base link=x4       cost 2      0.48 ms     16.63 uJ     34.87 mW
	//   VA    tasklets=16 ilp=DRSF link=x1       cost 4      0.44 ms     15.56 uJ     35.26 mW
	//   VA    tasklets=16 ilp=DRSF link=x4       cost 6      0.40 ms     14.28 uJ     35.83 mW
	//   GEMV  tasklets=16 ilp=base link=x1       cost 0      0.35 ms     16.32 uJ     47.09 mW
	//   GEMV  tasklets=16 ilp=base link=x4       cost 2      0.34 ms     16.27 uJ     47.18 mW
	//   GEMV  tasklets=16 ilp=DRSF link=x1       cost 4      0.17 ms     11.02 uJ     64.84 mW
	//   GEMV  tasklets=16 ilp=DRSF link=x4       cost 6      0.16 ms     10.85 uJ     66.08 mW
	// === frontier: EDP vs cost ===
	//   VA    tasklets=16 ilp=base link=x1       cost 0      0.50 ms     17.26 uJ     34.67 mW
	//   VA    tasklets=16 ilp=base link=x4       cost 2      0.48 ms     16.63 uJ     34.87 mW
	//   VA    tasklets=16 ilp=DRSF link=x1       cost 4      0.44 ms     15.56 uJ     35.26 mW
	//   VA    tasklets=16 ilp=DRSF link=x4       cost 6      0.40 ms     14.28 uJ     35.83 mW
	//   GEMV  tasklets=16 ilp=base link=x1       cost 0      0.35 ms     16.32 uJ     47.09 mW
	//   GEMV  tasklets=16 ilp=base link=x4       cost 2      0.34 ms     16.27 uJ     47.18 mW
	//   GEMV  tasklets=16 ilp=DRSF link=x1       cost 4      0.17 ms     11.02 uJ     64.84 mW
	//   GEMV  tasklets=16 ilp=DRSF link=x4       cost 6      0.16 ms     10.85 uJ     66.08 mW
	//
	// == Pathfinding (energy): per-point energy breakdown under per-architecture default profiles ==
	// benchmark  design                        pipeline (uJ)  rf (uJ)  wram (uJ)  iram (uJ)  link (uJ)  dram (uJ)  cache (uJ)  host (uJ)  leakage (uJ)  total (uJ)  power (mW)  EDP (uJ*ms)
	// VA         tasklets=4 ilp=base link=x1   0.07147        0.02512  0.02379    0.03516    0.07373    0.9259     0           12.29      7.948         21.4        33.65       13.6
	// VA         tasklets=4 ilp=base link=x4   0.07147        0.02512  0.02379    0.03516    0.07373    0.9259     0           12.29      7.239         20.69       33.79       12.66
	// VA         tasklets=4 ilp=DRSF link=x1   0.07147        0.02512  0.02379    0.03516    0.07373    0.9259     0           12.29      2.196         15.64       35.23       6.946
	// VA         tasklets=4 ilp=DRSF link=x4   0.07147        0.02512  0.02379    0.03516    0.07373    0.9259     0           12.29      1.154         14.6        35.67       5.976
	// VA         tasklets=16 ilp=base link=x1  0.07213        0.02529  0.02387    0.03544    0.07373    0.9259     0           12.29      3.812         17.26       34.67       8.594
	// VA         tasklets=16 ilp=base link=x4  0.07213        0.02529  0.02387    0.03544    0.07373    0.9259     0           12.29      3.18          16.63       34.87       7.928
	// VA         tasklets=16 ilp=DRSF link=x1  0.07213        0.02529  0.02387    0.03544    0.07373    0.9259     0           12.29      2.116         15.56       35.26       6.87
	// VA         tasklets=16 ilp=DRSF link=x4  0.07213        0.02529  0.02387    0.03544    0.07373    0.9259     0           12.29      0.8366        14.28       35.83       5.696
	// GEMV       tasklets=4 ilp=base link=x1   0.1753         0.05498  0.02988    0.07127    0.0503     0.737      0           8.389      14.41         23.92       39.86       14.36
	// GEMV       tasklets=4 ilp=base link=x4   0.1753         0.05498  0.02988    0.07128    0.0503     0.737      0           8.389      14.13         23.64       40.01       13.97
	// GEMV       tasklets=4 ilp=DRSF link=x1   0.1758         0.05513  0.03005    0.07153    0.0503     0.737      0           8.389      2.163         11.67       60.83       2.239
	// GEMV       tasklets=4 ilp=DRSF link=x4   0.1754         0.05501  0.02991    0.07134    0.0503     0.737      0           8.389      1.984         11.49       61.82       2.136
	// GEMV       tasklets=16 ilp=base link=x1  0.1795         0.05589  0.03071    0.0736     0.0503     0.737      0           8.389      6.807         16.32       47.09       5.659
	// GEMV       tasklets=16 ilp=base link=x4  0.1795         0.05589  0.03071    0.07361    0.0503     0.737      0           8.389      6.753         16.27       47.18       5.611
	// GEMV       tasklets=16 ilp=DRSF link=x1  0.1795         0.05589  0.03071    0.07357    0.0503     0.737      0           8.389      1.508         11.02       64.84       1.874
	// GEMV       tasklets=16 ilp=DRSF link=x4  0.1795         0.05589  0.03071    0.0736     0.0503     0.737      0           8.389      1.333         10.85       66.08       1.781
}

// Two-tier pathfinding: triage a 108-point space with the calibrated
// analytical estimator, then spend cycle-exact simulation only on the
// estimated Pareto band. The plan step predicts the estimate/simulate split
// without simulating anything; the tiered exploration then simulates about
// a quarter of the space, and its cycle-exact frontier is checked against
// an exhaustive exploration of the same space.
func ExampleExploreTiered() {
	space := upim.NewDesignSpace([]string{"VA"},
		upim.AxisTasklets(1, 4, 16),
		upim.AxisFrequencyMHz(350, 700),
		upim.AxisLinkScale(1, 2, 4),
		upim.AxisILP("base", "D", "DRSF"),
		upim.AxisModes(upim.ModeScratchpad, upim.ModeCache),
	)
	space.Scale = upim.ScaleTiny

	// The committed calibration under the committed energy profile; any
	// energy/EDP goals must be priced by the same profile.
	est, err := upim.NewEstimator(nil, nil)
	if err != nil {
		log.Fatal(err)
	}
	topts := upim.TieredExploreOptions{
		Estimator: est,
		Band:      0.03, // simulate everything within 3% of the estimated frontier
		Goals:     []upim.ExploreGoal{upim.GoalTime(), upim.GoalCost()},
	}
	plan, err := upim.PlanTieredExploration(space, topts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: %d feasible points; band of %d (%.0f%%) would simulate, %d resolve by estimate\n",
		plan.Feasible, plan.Band, 100*float64(plan.Band)/float64(plan.Feasible), plan.EstimateOnly)

	ctx := context.Background()
	x, tri, err := upim.ExploreTiered(ctx, space, upim.ExploreOptions{}, topts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tiered: simulated %d/%d, estimator max rel err on the band %.2f%%\n",
		x.Simulated, tri.Feasible, tri.MaxRelErr*100)

	// Estimate-fidelity outcomes never rank, so the frontier is cycle-exact;
	// compare it with paying full price for the whole space.
	full, err := upim.Explore(ctx, space, upim.ExploreOptions{})
	if err != nil {
		log.Fatal(err)
	}
	designs := func(front []upim.ExploreOutcome) map[string]bool {
		out := make(map[string]bool, len(front))
		for _, o := range front {
			out[o.Point.Benchmark+" "+o.Point.Design] = true
		}
		return out
	}
	tieredFront := designs(upim.ParetoFront(x.Outcomes, topts.Goals...))
	fullFront := designs(upim.ParetoFront(full.Outcomes, topts.Goals...))
	fmt.Printf("frontier: %d designs from %d simulations; exhaustive finds %d from %d\n",
		len(tieredFront), x.Simulated, len(fullFront), full.Simulated)
	for _, d := range slices.Sorted(maps.Keys(fullFront)) {
		marker := "MISSED"
		if tieredFront[d] {
			marker = "found"
		}
		fmt.Printf("  %-55s %s\n", d, marker)
	}
	fmt.Println()
	x.TriageTable(tri).Fprint(os.Stdout)
	// Output:
	// plan: 108 feasible points; band of 26 (24%) would simulate, 82 resolve by estimate
	// tiered: simulated 26/108, estimator max rel err on the band 8.33%
	// frontier: 8 designs from 26 simulations; exhaustive finds 8 from 108
	//   VA tasklets=16 freq=350 link=x1 ilp=base mode=scratchpad found
	//   VA tasklets=16 freq=350 link=x2 ilp=DRSF mode=scratchpad found
	//   VA tasklets=16 freq=350 link=x4 ilp=DRSF mode=scratchpad found
	//   VA tasklets=16 freq=700 link=x1 ilp=base mode=scratchpad found
	//   VA tasklets=16 freq=700 link=x2 ilp=D mode=scratchpad   found
	//   VA tasklets=16 freq=700 link=x2 ilp=base mode=scratchpad found
	//   VA tasklets=16 freq=700 link=x4 ilp=D mode=scratchpad   found
	//   VA tasklets=16 freq=700 link=x4 ilp=DRSF mode=scratchpad found
	//
	// == Pathfinding (triage): two-tier fidelity split and band accuracy ==
	// feasible  estimable  unestimable  band  estimate-only  band max rel err  band mean rel err
	// 108       108        0            26    82             0.08              0.02
}
