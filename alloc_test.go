//go:build !race

package upim_test

import (
	"context"
	"testing"

	"upim"
)

// TestWarmRunHostAllocs bounds what a warm Runner.Run allocates for two
// hosts other than VA (which BenchmarkSimulationRate gates): GEMV, a
// multi-buffer host, and SEL, whose verification walks per-tasklet regions.
// Every host stages, reads back and verifies through pooled buffers, so a
// warm point is left with the run's fixed bookkeeping; when each transfer
// allocated its own buffer GEMV took 20 and SEL 190. Not under the race
// detector, where sync.Pool drops items at random.
func TestWarmRunHostAllocs(t *testing.T) {
	r, err := upim.NewRunner(upim.WithScale(upim.ScaleTiny))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, bound := range map[string]float64{"GEMV": 17, "SEL": 24} {
		run := func() {
			if _, err := r.Run(ctx, name); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the build cache, the input cache, the arena and the pool
		if got := testing.AllocsPerRun(10, run); got > bound {
			t.Errorf("%s: %.0f allocs per warm run, want at most %.0f", name, got, bound)
		}
	}
}
