package main

import "time"

// sizes is the one place the per-workload size constants live. The driver
// contract gives a run about 25 s of wall clock for set-up plus measurement,
// so the full size keeps one repetition of every workload near one second
// (ISSUE 12 sized them at 3-6 s against an unbounded run); lower a workload
// here, never drop it.
type sizes struct {
	name string
	// setups is how many times a run repeats a workload's set-up; setup_s is
	// the median of them.
	setups int
	// axes spans the exact-fidelity exploration spaces, tieredAxes the
	// two-tier one (all 16 benchmarks, so fewer levels per axis).
	axes, tieredAxes string
	// figures lists the experiment IDs one figures_tiny repetition runs;
	// nil means all of upim.Experiments().
	figures []string
	// coldBench, coordBench and tieredBench are the benchmark sets of the
	// pathfind_cold/pathfind_resume, coord_http and tiered_triage spaces.
	coldBench, coordBench, tieredBench []string
	// resumePasses is how many resumed explorations one pathfind_resume
	// repetition makes over its populated store.
	resumePasses int
	shardSize    int
	leaseTTL     time.Duration
	band         float64
	// serveRequests is the per-tenant request count of every serve_sweep
	// cell; servePolicies x serveLoads are the cells.
	serveRequests int
	servePolicies []string
	serveLoads    []float64
	// probeFloor is the least time one ladder probe measures for; a traced
	// run raises it to its share of -seconds.
	probeFloor time.Duration
	// storeOps is the sample count of the HTTP store latency probes (the
	// p99 needs at least 1000).
	storeOps int
}

var fullSize = sizes{
	name:          "full",
	setups:        3,
	axes:          "tasklets=1,4,16;freq=350,700;link=1,4;ilp=base,DR,DRSF;mode=scratchpad,cache",
	tieredAxes:    "tasklets=1,16;freq=350,700;link=1,4;ilp=base,DRSF;mode=scratchpad,cache",
	coldBench:     []string{"VA", "BS", "GEMV", "RED"},
	coordBench:    []string{"VA", "BS"},
	tieredBench:   nil, // all 16
	resumePasses:  12,
	shardSize:     8,
	leaseTTL:      10 * time.Second,
	band:          0.1,
	serveRequests: 25000,
	servePolicies: []string{"fifo", "wfq", "slo"},
	serveLoads:    []float64{0.5, 0.8, 0.95, 1.1},
	probeFloor:    25 * time.Millisecond,
	storeOps:      1000,
}

// smokeSize is what `go test` runs: every code path, a fraction of the work.
var smokeSize = sizes{
	name:          "smoke",
	setups:        1,
	axes:          "tasklets=1,16;ilp=base,DRSF;mode=scratchpad,cache",
	tieredAxes:    "tasklets=1,16;ilp=base,DRSF;mode=scratchpad,cache",
	figures:       []string{"table1", "table2", "fig8", "fig11", "table3", "crossarch"},
	coldBench:     []string{"VA", "BS"},
	coordBench:    []string{"VA", "BS"},
	tieredBench:   []string{"VA", "BS", "GEMV", "RED"},
	resumePasses:  2,
	shardSize:     4,
	leaseTTL:      10 * time.Second,
	band:          0.1,
	serveRequests: 1000,
	servePolicies: []string{"fifo", "wfq", "slo"},
	serveLoads:    []float64{0.8, 1.1},
	probeFloor:    time.Millisecond,
	storeOps:      50,
}
