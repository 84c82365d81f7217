// Determinism is a load-bearing property of this simulator: the committed
// refdata oracle (figures -check) and the repo benchmark's digests
// (benchmark/run.sh) both assume a (benchmark, config, DPUs, scale) point
// always produces identical statistics. These tests pin that down at the
// public API level, including across sweep-engine parallelism, which must
// only change wall clock, never results.
package upim_test

import (
	"context"
	"testing"

	"upim"
)

var determinismPoints = []upim.Point{
	{Benchmark: "VA"},
	{Benchmark: "BS"},
	{Benchmark: "GEMV"},
	{Benchmark: "HST-L"},
	{Benchmark: "TRNS", Tasklets: 8},
}

// sweepCounters runs the point set on a Runner with the given parallelism
// and returns each point's flattened counters, indexed like the input.
func sweepCounters(t *testing.T, parallelism int) [][]float64 {
	t.Helper()
	r, err := upim.NewRunner(
		upim.WithScale(upim.ScaleTiny),
		upim.WithTasklets(16),
		upim.WithParallelism(parallelism),
	)
	if err != nil {
		t.Fatal(err)
	}
	out := make([][]float64, len(determinismPoints))
	for sr := range r.Sweep(context.Background(), determinismPoints) {
		if sr.Err != nil {
			t.Fatalf("point %d: %v", sr.Index, sr.Err)
		}
		counters := sr.Result.Stats.Counters()
		vals := make([]float64, len(counters))
		for i, c := range counters {
			vals[i] = c.Value
		}
		out[sr.Index] = vals
	}
	return out
}

// TestSimulationDeterministicAcrossRuns: the same sweep twice yields
// bit-identical counters.
func TestSimulationDeterministicAcrossRuns(t *testing.T) {
	a := sweepCounters(t, 1)
	b := sweepCounters(t, 1)
	comparePointCounters(t, a, b, "second run")
}

// TestSimulationDeterministicAcrossParallelism: simulating under a
// concurrent sweep engine yields exactly the serial results.
func TestSimulationDeterministicAcrossParallelism(t *testing.T) {
	serial := sweepCounters(t, 1)
	parallel := sweepCounters(t, 8)
	comparePointCounters(t, serial, parallel, "parallelism 8")
}

// sweepEnergy runs the point set and returns each point's energy report
// under the default TechProfile.
func sweepEnergy(t *testing.T, parallelism int) []upim.EnergyReport {
	t.Helper()
	r, err := upim.NewRunner(
		upim.WithScale(upim.ScaleTiny),
		upim.WithTasklets(16),
		upim.WithParallelism(parallelism),
	)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]upim.EnergyReport, len(determinismPoints))
	for sr := range r.Sweep(context.Background(), determinismPoints) {
		if sr.Err != nil {
			t.Fatalf("point %d: %v", sr.Index, sr.Err)
		}
		out[sr.Index] = upim.EnergyOf(sr.Result, nil)
	}
	return out
}

// TestEnergyDeterministicAcrossParallelism: the energy model is a pure
// function of the counters, so energy must be bit-identical between serial
// and concurrent sweeps — the property the energy-aware Pareto goals and
// the store's resume contract stand on.
func TestEnergyDeterministicAcrossParallelism(t *testing.T) {
	serial := sweepEnergy(t, 1)
	parallel := sweepEnergy(t, 8)
	for p := range serial {
		if serial[p] != parallel[p] {
			t.Errorf("point %s: energy differs across parallelism:\n  serial   %+v\n  parallel %+v",
				determinismPoints[p].Benchmark, serial[p], parallel[p])
		}
		if serial[p].TotalPJ() <= 0 {
			t.Errorf("point %s: non-positive energy", determinismPoints[p].Benchmark)
		}
	}
}

func comparePointCounters(t *testing.T, want, got [][]float64, label string) {
	t.Helper()
	names := upimCounterNames(t)
	for p := range want {
		if len(want[p]) != len(got[p]) {
			t.Fatalf("%s: point %s: %d vs %d counters", label, determinismPoints[p].Benchmark, len(want[p]), len(got[p]))
		}
		for i := range want[p] {
			if want[p][i] != got[p][i] {
				t.Errorf("%s: point %s counter %s: %v vs %v",
					label, determinismPoints[p].Benchmark, names[i], want[p][i], got[p][i])
			}
		}
	}
}

func upimCounterNames(t *testing.T) []string {
	t.Helper()
	var s upim.Stats
	counters := s.Counters()
	names := make([]string, len(counters))
	for i, c := range counters {
		names[i] = c.Name
	}
	return names
}
