// Package machinetest is the conformance suite every machine.Backend must
// pass, mirroring explore/storetest: a backend plugs architecture-specific
// execution under the engine, and the properties here are what the rest of
// the system silently relies on — deterministic repeat-run counters,
// parallelism-invariant (1-vs-8) bit identity, a bulk energy equal to the
// host transfer plus each site's kernel energy, and aggregate statistics
// that are exactly the fold of the per-site records. Each backend's own package runs Run against
// representative points; CI runs it under -race.
package machinetest

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/prim"
	"upim/internal/stats"
)

// Run executes the conformance suite for the backend that handles arch
// ("" means the native UPMEM core) over the given points. Every point must
// be executable — pick small shapes; the suite runs each point several
// times.
func Run(t *testing.T, arch string, pts []engine.Point) {
	t.Helper()
	if len(pts) == 0 {
		t.Fatal("machinetest: no points to run")
	}
	t.Run("SupportsDeclaredPoints", func(t *testing.T) {
		for i, p := range pts {
			on := ""
			if p.Machine != nil {
				on = p.Machine.Arch
			}
			if on != arch {
				t.Fatalf("point %d (%s) runs on %q, not on the backend under test %q", i, p.Benchmark, on, arch)
			}
			if err := p.Check(); err != nil {
				t.Fatalf("backend %q refuses point %d (%s) of the conformance points: %v", arch, i, p.Benchmark, err)
			}
		}
	})

	base := mustSweep(t, 1, pts)

	t.Run("DeterministicRepeat", func(t *testing.T) {
		again := mustSweep(t, 1, pts)
		if a, b := marshal(t, base), marshal(t, again); a != b {
			t.Fatalf("repeat run diverged:\n%s\nvs\n%s", a, b)
		}
	})

	t.Run("Parallelism1vs8", func(t *testing.T) {
		par := mustSweep(t, 8, pts)
		if a, b := marshal(t, base), marshal(t, par); a != b {
			t.Fatalf("-jobs 1 vs 8 diverged:\n%s\nvs\n%s", a, b)
		}
	})

	t.Run("BulkEnergyIsHostTransferPlusSiteKernels", func(t *testing.T) {
		for i, r := range base {
			prof := energy.DefaultFor(r.Arch)
			bulk := r.Energy(nil)
			sum := energy.HostTransfer(prof, r.Report.BytesIn, r.Report.BytesOut)
			for j := range r.PerDPU {
				sum = sum.Add(energy.Kernel(prof, r.Config, &r.PerDPU[j]))
			}
			if got, want := bulk.TotalPJ(), sum.TotalPJ(); !close(got, want) {
				t.Fatalf("point %d (%s): bulk energy %.6g pJ != host transfer + site kernels %.6g pJ", i, pts[i].Benchmark, got, want)
			}
			for c := range bulk.PJ {
				if !close(bulk.PJ[c], sum.PJ[c]) {
					t.Fatalf("point %d (%s): component %v: bulk %.6g pJ != host transfer + site kernels %.6g pJ",
						i, pts[i].Benchmark, energy.Component(c), bulk.PJ[c], sum.PJ[c])
				}
			}
		}
	})

	t.Run("AggregateIsFoldOfPerSite", func(t *testing.T) {
		for i, r := range base {
			if len(r.PerDPU) != pts[i].DPUs {
				t.Fatalf("point %d (%s): %d per-site records for %d sites", i, pts[i].Benchmark, len(r.PerDPU), pts[i].DPUs)
			}
			var fold stats.DPU
			for j := range r.PerDPU {
				fold.Add(&r.PerDPU[j])
			}
			got, want := r.Stats.Counters(), fold.Counters()
			if len(got) != len(want) {
				t.Fatalf("point %d: counter vector length %d vs %d", i, len(got), len(want))
			}
			for k := range got {
				if got[k].Name != want[k].Name || got[k].Value != want[k].Value {
					t.Fatalf("point %d (%s): counter %s: aggregate %v != fold %v",
						i, pts[i].Benchmark, got[k].Name, got[k].Value, want[k].Value)
				}
			}
		}
	})
}

// mustSweep runs the points through a fresh engine at the given parallelism
// and returns results in point order.
func mustSweep(t *testing.T, parallelism int, pts []engine.Point) []*prim.Result {
	t.Helper()
	outs, err := engine.New(parallelism).SweepAll(context.Background(), pts)
	if err != nil {
		t.Fatalf("machinetest: sweep failed: %v", err)
	}
	res := make([]*prim.Result, len(outs))
	for i, o := range outs {
		res[i] = o.Result
	}
	return res
}

// marshal canonicalizes results for bit-identity comparison.
func marshal(t *testing.T, res []*prim.Result) string {
	t.Helper()
	data, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("machinetest: marshaling results: %v", err)
	}
	return string(data)
}

// close compares energies to within one part in 1e12 — the same epsilon the
// artifact golden checks use. The bulk report and the per-site sum may
// legitimately differ by summation order.
func close(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}
