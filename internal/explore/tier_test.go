package explore

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"upim/internal/artifact"
	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/machine"
	"upim/internal/prim"
)

// tieredSpace is the two-tier acceptance exploration: five axes over one
// benchmark at tiny scale (3*2*3*3*2 = 108 feasible points).
func tieredSpace() *Space {
	s := NewSpace([]string{"VA"},
		Tasklets(1, 4, 16),
		FrequencyMHz(350, 700),
		LinkScale(1, 2, 4),
		ILP("base", "D", "DRSF"),
		Modes(config.ModeScratchpad, config.ModeCache))
	s.Scale = prim.ScaleTiny
	return s
}

// acceptanceSlack is the band slack the acceptance test runs at: wide enough
// that the committed calibration keeps every true frontier point in the
// band, narrow enough that the band stays within a quarter of the space.
const acceptanceSlack = 0.03

// designSet extracts the design labels of a frontier for set comparison.
func designSet(outs []Outcome) map[string]bool {
	set := make(map[string]bool, len(outs))
	for _, o := range outs {
		set[o.Point.Design] = true
	}
	return set
}

// TestTieredAcceptanceCriteria pins the two-tier headline numbers: on a
// 5-axis exploration, the two-tier run simulates its anchors plus at most
// 25% of the feasible space, and its cycle-exact Pareto frontier over the
// active goals is identical to the exhaustive run's frontier.
func TestTieredAcceptanceCriteria(t *testing.T) {
	ctx := context.Background()
	space := tieredSpace()

	exhaustive, err := New(Options{Parallelism: 8}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	wantFrontier := Pareto(exhaustive.Outcomes, GoalTime(), GoalCost())
	if len(wantFrontier) == 0 {
		t.Fatal("exhaustive frontier is empty")
	}

	tiered, tri, err := New(Options{Parallelism: 8}).ExploreTiered(ctx, space, TieredOptions{Band: acceptanceSlack})
	if err != nil {
		t.Fatal(err)
	}
	if tri.Feasible != 108 || tri.Unestimable != 0 || tri.Anchors != 6 {
		t.Fatalf("triage = %+v, want 108 feasible, all estimable from 6 anchors", tri)
	}
	if limit := tri.Feasible / 4; tiered.Simulated-tri.Anchors > limit {
		t.Fatalf("tier B simulated %d of %d feasible points, want the %d anchors plus <= %d (25%%)",
			tiered.Simulated, tri.Feasible, tri.Anchors, limit)
	}
	if tiered.Simulated != tri.Band {
		t.Fatalf("simulated %d but band is %d (fresh store should simulate exactly the band)", tiered.Simulated, tri.Band)
	}
	if tri.Band+tri.EstimateOnly != tri.Feasible {
		t.Fatalf("band %d + estimate-only %d != feasible %d", tri.Band, tri.EstimateOnly, tri.Feasible)
	}

	// Pareto only ranks cycle-exact outcomes (estimate-only points carry no
	// Result), so the tiered frontier is the frontier of the band — and it
	// must equal the exhaustive frontier exactly.
	gotFrontier := Pareto(tiered.Outcomes, GoalTime(), GoalCost())
	got, want := designSet(gotFrontier), designSet(wantFrontier)
	for d := range want {
		if !got[d] {
			t.Errorf("frontier point %q lost by the triage", d)
		}
	}
	for d := range got {
		if !want[d] {
			t.Errorf("spurious frontier point %q (band kept a dominated point on its frontier?)", d)
		}
	}

	// Every outcome carries its fidelity; estimate-only ones the estimate.
	for _, o := range tiered.Outcomes {
		switch o.Fidelity {
		case FidelityExact:
			if o.Result == nil {
				t.Fatalf("%s: exact fidelity without a result", o.Point.Design)
			}
		case FidelityEstimate:
			if o.Estimate == nil || o.Result != nil {
				t.Fatalf("%s: estimate fidelity with result %v estimate %v", o.Point.Design, o.Result != nil, o.Estimate != nil)
			}
		default:
			t.Fatalf("%s: no fidelity", o.Point.Design)
		}
	}
	if tri.ErrSamples != tri.Band {
		t.Fatalf("band accuracy sampled %d points, want the whole band %d", tri.ErrSamples, tri.Band)
	}
	if tri.MaxRelErr <= 0 || tri.MaxRelErr > 1 {
		t.Fatalf("band max rel err = %v, want a plausible nonzero fraction", tri.MaxRelErr)
	}
}

// TestTieredResumeByteIdentical pins the resume contract for two-tier runs:
// a second run over the same store re-simulates nothing, serves the whole
// band from the store, resolves the same points at estimate fidelity, and
// renders byte-identical artifact tables (triage summary included).
func TestTieredResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	render := func(x *Exploration, tri *Triage) []byte {
		dir := t.TempDir()
		if err := artifact.WriteReport(dir, []*artifact.Table{x.SummaryTable(), x.ParetoTable(), x.TriageTable(tri)}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			data, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			buf.WriteString(de.Name())
			buf.Write(data)
		}
		return buf.Bytes()
	}

	space := tieredSpace()
	topts := TieredOptions{Band: acceptanceSlack}
	x1, tri1, err := New(Options{Parallelism: 8, Store: store}).ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	x2, tri2, err := New(Options{Parallelism: 1, Store: store}).ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if x2.Simulated != 0 {
		t.Fatalf("resumed run re-simulated %d points", x2.Simulated)
	}
	if x2.Hits != x1.Simulated {
		t.Fatalf("resumed run hit %d, want the full band %d", x2.Hits, x1.Simulated)
	}
	if x2.Estimated != x1.Estimated {
		t.Fatalf("estimate-fidelity points changed across resume: %d vs %d", x2.Estimated, x1.Estimated)
	}
	if *tri1 != *tri2 {
		t.Fatalf("triage changed across resume:\nfirst  %+v\nsecond %+v", tri1, tri2)
	}
	if a, b := render(x1, tri1), render(x2, tri2); !bytes.Equal(a, b) {
		t.Fatal("artifact tables differ across a resumed two-tier run")
	}
}

// TestTieredParallelismInvariant pins determinism across worker counts: the
// tier split, outcomes and artifact bytes cannot depend on -jobs.
func TestTieredParallelismInvariant(t *testing.T) {
	ctx := context.Background()
	space := NewSpace([]string{"VA", "GEMV"}, Tasklets(1, 4, 16), LinkScale(1, 4), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny
	topts := TieredOptions{Band: 0.1}

	var refBytes []byte
	var refTri Triage
	for i, jobs := range []int{1, 8} {
		x, tri, err := New(Options{Parallelism: jobs}).ExploreTiered(ctx, space, topts)
		if err != nil {
			t.Fatal(err)
		}
		dir := t.TempDir()
		if err := artifact.WriteReport(dir, []*artifact.Table{x.SummaryTable(), x.ParetoTable(), x.TriageTable(tri)}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range entries {
			data, err := os.ReadFile(filepath.Join(dir, de.Name()))
			if err != nil {
				t.Fatal(err)
			}
			buf.Write(data)
		}
		if i == 0 {
			refBytes, refTri = buf.Bytes(), *tri
			continue
		}
		if *tri != refTri {
			t.Fatalf("jobs=%d changed the triage: %+v vs %+v", jobs, tri, refTri)
		}
		if !bytes.Equal(buf.Bytes(), refBytes) {
			t.Fatalf("jobs=%d changed the artifact bytes", jobs)
		}
	}
}

// TestTieredUnestimablePointsAreSimulated: a point the estimator does not
// model (here: one on the HBM-PIM backend, which has no UPMEM anchor)
// cannot be triaged out — it lands in the band and resolves cycle-exactly.
func TestTieredUnestimablePointsAreSimulated(t *testing.T) {
	space := NewSpace([]string{"VA"}, Archs(machine.ArchHBMPIM))
	space.Scale = prim.ScaleTiny
	x, tri, err := New(Options{Parallelism: 1}).ExploreTiered(context.Background(), space, TieredOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if tri.Feasible != 1 || tri.Unestimable != 1 || tri.Band != 1 || tri.Anchors != 0 {
		t.Fatalf("triage = %+v, want the single unestimable point forced into the band", tri)
	}
	if x.Simulated != 1 || x.Outcomes[0].Fidelity != FidelityExact || x.Outcomes[0].Result == nil {
		t.Fatalf("unestimable point not simulated: %+v", x.Outcomes[0])
	}
}

// TestTieredSpeedupsMatchExhaustive: a speedup is priced against the
// benchmark's reference point, the all-baseline design, which is an anchor
// and so always simulated in a two-tier run. The speedup column of
// pathfind-best therefore reads exactly as an exhaustive run's.
func TestTieredSpeedupsMatchExhaustive(t *testing.T) {
	ctx := context.Background()
	space := NewSpace([]string{"VA", "BS"}, Tasklets(1, 16), FrequencyMHz(350, 700), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny
	exhaustive, err := New(Options{Parallelism: 4}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	// At this slack every design the best table ranks is in the band (the
	// ranking's own half of the contract is a separate matter).
	tiered, _, err := New(Options{Parallelism: 4}).ExploreTiered(ctx, space, TieredOptions{Band: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if tiered.Estimated == 0 {
		t.Fatal("the tiered run estimated nothing; the test needs a triaged space")
	}
	speedups := func(x *Exploration) []artifact.Value {
		best := x.BestTable(3)
		col := make([]artifact.Value, len(best.Rows))
		for i := range best.Rows {
			col[i] = best.Cell(i, "speedup vs base")
		}
		return col
	}
	got, want := speedups(tiered), speedups(exhaustive)
	if len(got) != len(want) {
		t.Fatalf("tiered best table has %d rows, exhaustive %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("best row %d: tiered speedup %s (%v), exhaustive %s (%v)", i, got[i].Text, got[i].Num, want[i].Text, want[i].Num)
		}
	}
}

// TestTieredGoalProfileMismatch: estimated and exact energy values must be
// priced under one profile; a goal bound to a different profile is an error.
func TestTieredGoalProfileMismatch(t *testing.T) {
	prof := energy.Default()
	prof.Name = "custom-7nm"
	_, err := resolveTiered(TieredOptions{Goals: []Goal{GoalEnergy(prof), GoalCost()}})
	if err == nil || !strings.Contains(err.Error(), "profile") {
		t.Fatalf("profile mismatch accepted: %v", err)
	}
	// Bound to the same profile the estimator uses, it resolves fine.
	est, err := estimate.New(nil, prof)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := resolveTiered(TieredOptions{Estimator: est, Goals: []Goal{GoalEnergy(prof), GoalCost()}}); err != nil {
		t.Fatal(err)
	}
}

// TestPlanTieredMatchesExploration: -plan's predicted split must match what
// ExploreTiered then does. Planning simulates the space's anchors and
// nothing else, through the store, so the exploration after it finds them
// there.
func TestPlanTieredMatchesExploration(t *testing.T) {
	ctx := context.Background()
	space := tieredSpace()
	topts := TieredOptions{Band: acceptanceSlack}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	e := New(Options{Parallelism: 8, Store: store})
	plan, err := e.PlanTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := store.Count(); err != nil || n != plan.Anchors || n != 6 {
		t.Fatalf("planning stored %d points (%v), want the space's 6 anchors (plan says %d)", n, err, plan.Anchors)
	}
	x, tri, err := e.ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Anchors != tri.Anchors || plan.Feasible != tri.Feasible || plan.Band != tri.Band || plan.EstimateOnly != tri.EstimateOnly {
		t.Fatalf("plan %+v diverges from the exploration's triage %+v", plan, tri)
	}
	if x.Hits != plan.Anchors || x.Simulated != plan.Band-plan.Anchors {
		t.Fatalf("after planning, the exploration hit %d and simulated %d; want the %d anchors and the rest of the band %d",
			x.Hits, x.Simulated, plan.Anchors, plan.Band)
	}
}

// TestStoreFidelityTags pins the store's fidelity semantics: estimates are
// never served as exact, exact always upgrades, and estimates never
// downgrade. A record of unknown fidelity (a newer or tampered store) is
// TestSegmentScanSkipsWhatItCannotServe's.
func TestStoreFidelityTags(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	key := KeyOf(ep)
	est, err := estimate.New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := est.Estimate(ep)
	if err != nil {
		t.Fatal(err)
	}

	// An estimate entry must never satisfy an exact Get.
	if err := st.PutEstimate(key, ep, e); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("estimate entry served as cycle-exact")
	}
	if got, ok := st.GetEstimate(key); !ok || got.KernelCycles != e.KernelCycles {
		t.Fatalf("estimate round trip: ok=%v got=%+v", ok, got)
	}
	// The same estimate again writes nothing; a changed one supersedes it.
	if err := st.PutEstimate(key, ep, e); err != nil || st.Stats().Puts != 1 {
		t.Fatalf("re-putting the stored estimate: err %v, %d puts, want 1", err, st.Stats().Puts)
	}
	changed := *e
	changed.Calibration = "another-calibration"
	if err := st.PutEstimate(key, ep, &changed); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.GetEstimate(key); !ok || got.Calibration != changed.Calibration {
		t.Fatalf("a changed estimate did not supersede the stored one: %+v", got)
	}

	// Exact upgrades the entry; a later estimate must not downgrade it.
	res := &prim.Result{Benchmark: "VA", Tasklets: 16, DPUs: 1}
	if err := st.Put(key, ep, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("exact entry missed after upgrade")
	}
	if _, ok := st.GetEstimate(key); ok {
		t.Fatal("upgraded entry still served as an estimate")
	}
	if err := st.PutEstimate(key, ep, e); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("estimate downgraded a cycle-exact entry")
	}
}
