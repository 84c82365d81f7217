package main

import (
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"upim"
)

// manifest mirrors BENCHMARK.json.
type manifest struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

func smokeEnv(t *testing.T) *env {
	return &env{ctx: context.Background(), jobs: 2, seed: 1, sz: smokeSize, tmp: t.TempDir()}
}

// sameNames fails unless got holds exactly the names in want.
func sameNames(t *testing.T, what string, got map[string]sample, want map[string]string) {
	t.Helper()
	for name, m := range got {
		unit, ok := want[name]
		if !ok {
			t.Errorf("%s: emits %q, which BENCHMARK.json does not declare", what, name)
		} else if unit != m.Unit {
			t.Errorf("%s: %q has unit %q, BENCHMARK.json says %q", what, name, m.Unit, unit)
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			t.Errorf("%s: BENCHMARK.json declares %q, which was not emitted", what, name)
		}
	}
}

// TestSmoke runs every workload, untraced and traced, and the ladder at the
// smoke size, and holds the emitted names to BENCHMARK.json.
func TestSmoke(t *testing.T) {
	m := loadManifest(t)
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	if len(m.Workloads) > 8 || len(m.EndToEnd) > 16 || len(m.PerLayer) > 128 {
		t.Errorf("BENCHMARK.json declares %d workloads, %d end-to-end and %d per-layer metrics; the caps are 8, 16 and 128",
			len(m.Workloads), len(m.EndToEnd), len(m.PerLayer))
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if d := m.Workloads[i]; d.Name != w.name || d.Why == "" {
			t.Errorf("workload %d: BENCHMARK.json has %q (why: %q), the program %q", i, d.Name, d.Why, w.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json declares %d end-to-end metrics, the program has %d", len(m.EndToEnd), len(endToEnd))
	}
	e2e, layer := map[string]string{}, map[string]string{}
	for i, d := range endToEnd {
		got := m.EndToEnd[i]
		if got.Name != d.name || got.Unit != d.unit || got.Better != d.better || got.Bound != d.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the program %+v", i, got, d)
		}
		e2e[d.name] = d.unit
	}
	for _, d := range m.PerLayer {
		layer[d.Name] = d.Unit
	}
	for name := range layer {
		if _, dup := e2e[name]; dup {
			t.Errorf("%q is declared both end to end and per layer", name)
		}
	}
	for _, names := range []map[string]string{e2e, layer} {
		for name := range names {
			if !nameRE.MatchString(name) {
				t.Errorf("metric name %q does not match %v", name, nameRE)
			}
		}
	}

	e := smokeEnv(t)
	ladder, err := runLadder(e, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %v", w.name, nameRE)
		}
		r, err := runUntraced(e, w, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct || r.Digest == "" {
			t.Errorf("%s: untraced run not correct: %+v", w.name, r)
		}
		sameNames(t, w.name+" untraced", r.Metrics, e2e)

		r, err = traceWorkload(e, w, 0, "")
		if err != nil {
			t.Fatal(err)
		}
		if !r.Correct {
			t.Errorf("%s: traced run not correct: %v", w.name, r.Failures)
		}
		if got := r.Metrics["span.attributed_share"].Median; got < 0.9 {
			t.Errorf("%s: named spans cover %.0f%% of the repetition, want at least 90%%", w.name, 100*got)
		}
		for _, lm := range ladder {
			r.Metrics[lm.name] = summarize(lm.unit, lm.values)
		}
		sameNames(t, w.name+" traced", r.Metrics, layer)
	}
}

// TestChecksFail injects the violations the correctness checks exist for and
// expects each to fail the run.
func TestChecksFail(t *testing.T) {
	e := smokeEnv(t)
	in, err := setupResume(e)
	if err != nil {
		t.Fatal(err)
	}
	resume := in.(*resumeInst)
	if out, err := resume.rep(nil, -1); err != nil || out.failed != 0 {
		t.Fatalf("clean resumed repetition: failed %d (%v), err %v", out.failed, out.fails, err)
	}

	t.Run("perturbed table", func(t *testing.T) {
		want := resume.want
		defer func() { resume.want = want }()
		resume.want = strings.Repeat("0", len(want))
		out, err := resume.rep(nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed == 0 {
			t.Error("a report differing from the reference did not fail the repetition")
		}
	})

	t.Run("corrupted store entry", func(t *testing.T) {
		pts, err := resume.space.Points()
		if err != nil {
			t.Fatal(err)
		}
		store, err := upim.OpenResultStore(resume.store)
		if err != nil {
			t.Fatal(err)
		}
		if err := store.CorruptEntry(upim.PointKey(pts[0])); err != nil {
			t.Fatal(err)
		}
		out, err := resume.rep(nil, -1)
		if err != nil {
			t.Fatal(err)
		}
		if out.failed == 0 {
			t.Error("a resumed pass that had to re-simulate a corrupted entry did not fail the repetition")
		}
	})

	t.Run("digest disagreement", func(t *testing.T) {
		reps := []timedRep{
			{repOut: repOut{work: 4, attempted: 4, digest: "aa"}},
			{repOut: repOut{work: 4, attempted: 4, digest: "ab"}},
		}
		var r result
		if verdict(&r, reps); r.Correct || r.Failed != 1 {
			t.Errorf("repetitions with different digests gave correct=%v failed=%d", r.Correct, r.Failed)
		}
		reps[1].digest, reps[1].work = "aa", 5
		r = result{}
		if verdict(&r, reps); r.Correct || r.Failed != 1 {
			t.Errorf("repetitions with different work counts gave correct=%v failed=%d", r.Correct, r.Failed)
		}
	})
}

func TestJudge(t *testing.T) {
	lower := metricDef{"wall_s", "s", "lower", 0.10}
	higher := metricDef{"work_per_s", "1/s", "higher", 0.10}
	for _, c := range []struct {
		d    metricDef
		a, b sample
		want string
	}{
		{lower, sample{Median: 1, IQR: 0.01, N: 9}, sample{Median: 1.05, IQR: 0.01, N: 9}, "unchanged"},
		{lower, sample{Median: 1, IQR: 0.01, N: 9}, sample{Median: 1.2, IQR: 0.01, N: 9}, "regressed"},
		{lower, sample{Median: 1, IQR: 0.01, N: 9}, sample{Median: 0.88, IQR: 0.01, N: 9}, "improved"},
		{lower, sample{Median: 1, IQR: 0.2, N: 9}, sample{Median: 1.3, IQR: 0.01, N: 9}, "unresolved"},
		{lower, sample{Median: 1, IQR: 0.2, N: 3}, sample{Median: 1.3, IQR: 0.01, N: 3}, "regressed"},
		{higher, sample{Median: 100, IQR: 1, N: 9}, sample{Median: 80, IQR: 1, N: 9}, "regressed"},
		{higher, sample{Median: 100, IQR: 1, N: 9}, sample{Median: 120, IQR: 1, N: 9}, "improved"},
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.d.name, c.a.Median, c.b.Median, got, c.want)
		}
	}
}
