package prim

import (
	"fmt"
	"slices"

	"upim/internal/config"
	"upim/internal/linker"
)

// suite is Table II: one row per PrIM benchmark, in name order, with its
// datasets at tiny, small and paper scale. The kernels (build*) and host
// programs (run*) live in one file per benchmark.
var suite = []*Benchmark{
	{Name: "BFS", About: "breadth-first search (2K vertices, 15K edges in Table II)", build: buildBFS, host: runBFS,
		sizes: [3]Params{{N: 1024, NNZPerRow: 6, Seed: 16}, {N: 2048, NNZPerRow: 7, Seed: 16}, {N: 16 << 10, NNZPerRow: 7, Seed: 16}}},
	{Name: "BS", About: "binary search (32K elem., 4K queries single-DPU in Table II)", build: buildBS, host: runBS,
		sizes: [3]Params{{N: 4 << 10, Queries: 512, Seed: 11}, {N: 32 << 10, Queries: 2 << 10, Seed: 11}, {N: 32 << 10, Queries: 4 << 10, Seed: 11}}},
	{Name: "GEMV", About: "dense matrix-vector multiply (2K x 64 single-DPU in Table II)", host: runGEMV, SupportsSIMT: true,
		build: func(m config.Mode) (*linker.Object, error) { return buildGEMVKernel(m, "gemv", false) },
		sizes: [3]Params{{M: 128, N: 64, Seed: 9}, {M: 1024, N: 64, Seed: 9}, {M: 2048, N: 64, Seed: 9}}},
	{Name: "HST-L", About: "histogram, shared copy behind a mutex (128K elem., 256 bins)", host: runHST,
		build: func(m config.Mode) (*linker.Object, error) { return buildHST(m, true) },
		sizes: [3]Params{{N: 8 << 10, Bins: hstBins, Seed: 8}, {N: 64 << 10, Bins: hstBins, Seed: 8}, {N: 128 << 10, Bins: hstBins, Seed: 8}}},
	{Name: "HST-S", About: "histogram, per-tasklet private copies (128K elem., 256 bins)", host: runHST,
		build: func(m config.Mode) (*linker.Object, error) { return buildHST(m, false) },
		sizes: [3]Params{{N: 8 << 10, Bins: hstBins, Seed: 7}, {N: 64 << 10, Bins: hstBins, Seed: 7}, {N: 128 << 10, Bins: hstBins, Seed: 7}}},
	{Name: "MLP", About: "3-layer perceptron (3 layers, 256 neurons in Table II)", host: runMLP,
		build: func(m config.Mode) (*linker.Object, error) { return buildGEMVKernel(m, "mlp", true) },
		sizes: [3]Params{{M: 64, Layers: 3, Seed: 10}, {M: 256, Layers: 3, Seed: 10}, {M: 1024, Layers: 3, Seed: 10}}},
	{Name: "NW", About: "Needleman-Wunsch alignment (256-gene sequences in Table II)", build: buildNW, host: runNW,
		sizes: [3]Params{{N: 64, Seed: 15}, {N: 128, Seed: 15}, {N: 256, Seed: 15}}},
	{Name: "RED", About: "sum reduction (512K elem. single-DPU in Table II)", build: buildRED, host: runRED,
		sizes: [3]Params{{N: 8 << 10, Seed: 2}, {N: 128 << 10, Seed: 2}, {N: 512 << 10, Seed: 2}}},
	{Name: "SCAN-RSS", About: "prefix sum, reduce-scan-scan (256K elem. single-DPU in Table II)", host: runScan,
		build: func(m config.Mode) (*linker.Object, error) { return buildScan(m, false) },
		sizes: [3]Params{{N: 8 << 10, Seed: 6}, {N: 64 << 10, Seed: 6}, {N: 256 << 10, Seed: 6}}},
	{Name: "SCAN-SSA", About: "prefix sum, scan-scan-add (256K elem. single-DPU in Table II)", host: runScan,
		build: func(m config.Mode) (*linker.Object, error) { return buildScan(m, true) },
		sizes: [3]Params{{N: 8 << 10, Seed: 5}, {N: 64 << 10, Seed: 5}, {N: 256 << 10, Seed: 5}}},
	{Name: "SEL", About: "stream compaction (512K elem. single-DPU in Table II)", build: buildSEL, host: runSEL,
		sizes: [3]Params{{N: 8 << 10, Seed: 3}, {N: 128 << 10, Seed: 3}, {N: 512 << 10, Seed: 3}}},
	{Name: "SpMV", About: "CSR sparse matrix-vector multiply (12K x 12K, 80K nnz in Table II)", build: buildSpMV, host: runSpMV,
		sizes: [3]Params{{M: 512, N: 512, NNZPerRow: 6, Seed: 13}, {M: 4 << 10, N: 4 << 10, NNZPerRow: 7, Seed: 13}, {M: 12 << 10, N: 12 << 10, NNZPerRow: 7, Seed: 13}}},
	{Name: "TRNS", About: "tiled matrix transpose (128K elem. single-DPU in Table II)", build: buildTRNS, host: runTRNS,
		sizes: [3]Params{{M: 64, N: 64, Seed: 14}, {M: 256, N: 256, Seed: 14}, {M: 512, N: 256, Seed: 14}}},
	{Name: "TS", About: "time-series motif search (2K elem., 64 queries in Table II)", build: buildTS, host: runTS,
		sizes: [3]Params{{N: 512, Queries: 8, Window: 8, Seed: 12}, {N: 2 << 10, Queries: 32, Window: 8, Seed: 12}, {N: 2 << 10, Queries: 64, Window: 8, Seed: 12}}},
	{Name: "UNI", About: "unique / consecutive-duplicate removal (512K elem. in Table II)", build: buildUNI, host: runUNI,
		sizes: [3]Params{{N: 8 << 10, Seed: 4}, {N: 128 << 10, Seed: 4}, {N: 512 << 10, Seed: 4}}},
	{Name: "VA", About: "element-wise vector addition (1M elem. single-DPU in Table II)", build: buildVA, host: runVA,
		sizes: [3]Params{{N: 4 << 10, Seed: 1}, {N: 64 << 10, Seed: 1}, {N: 1 << 20, Seed: 1}}},
}

// Benchmarks lists the suite in name order, PrIM's Table II order.
func Benchmarks() []*Benchmark { return slices.Clone(suite) }

// ByName looks a benchmark up. The error matches ErrUnknownBenchmark.
func ByName(name string) (*Benchmark, error) {
	for _, b := range suite {
		if b.Name == name {
			return b, nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknownBenchmark, name)
}
