package explore

import (
	"context"
	"testing"

	"upim/internal/prim"
)

// resolveAll drives a space the way a coordinator worker does: one Resolve
// per index, in order, on the calling goroutine.
func resolveAll(t *testing.T, e *Explorer, space *Space, plan *BandPlan) *Exploration {
	t.Helper()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	x := &Exploration{Space: space, Points: pts, Outcomes: make([]Outcome, len(pts))}
	for i, p := range pts {
		x.Outcomes[i] = e.Resolve(context.Background(), p, i, plan)
		if err := x.Outcomes[i].Err; err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	return x
}

// TestResolveMatchesExplore pins the one-driver claim from the outside:
// resolving every index one by one into a fresh store is indistinguishable —
// outcomes, store contents, artifact bytes — from Explore (nil plan) and
// ExploreTiered (band plan) into another fresh store, and a second pass over
// the same store simulates nothing.
func TestResolveMatchesExplore(t *testing.T) {
	ctx := context.Background()
	space := NewSpace([]string{"VA"}, Tasklets(1, 4, 16), LinkScale(1, 2), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny
	topts := TieredOptions{Band: acceptanceSlack}
	plan, err := PlanBand(space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Triage.EstimateOnly == 0 || plan.Triage.Band == 0 {
		t.Fatalf("test space needs both fidelities, got %+v", plan.Triage)
	}

	for _, tc := range []struct {
		name string
		plan *BandPlan
	}{{"exact", nil}, {"tiered", plan}} {
		t.Run(tc.name, func(t *testing.T) {
			refStore, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			ref := New(Options{Parallelism: 4, Store: refStore})
			var want *Exploration
			if tc.plan == nil {
				want, err = ref.Explore(ctx, space)
			} else {
				want, _, err = ref.ExploreTiered(ctx, space, topts)
			}
			if err != nil {
				t.Fatal(err)
			}

			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			e := New(Options{Parallelism: 1, Store: store})
			got := resolveAll(t, e, space, tc.plan)
			wantDir, gotDir := t.TempDir(), t.TempDir()
			writeArtifacts(t, want, wantDir)
			writeArtifacts(t, got, gotDir)
			compareDirs(t, wantDir, gotDir)
			for i, o := range got.Outcomes {
				w := want.Outcomes[i]
				if o.Key != w.Key || o.Fidelity != w.Fidelity || o.Cached || (o.Estimate == nil) != (w.Estimate == nil) {
					t.Fatalf("point %d: got key %s fidelity %q cached %v, want key %s fidelity %q",
						i, o.Key, o.Fidelity, o.Cached, w.Key, w.Fidelity)
				}
				// Both stores hold the point at the fidelity it resolved at.
				if o.Fidelity == FidelityEstimate {
					if _, ok := store.GetEstimate(o.Key); !ok {
						t.Fatalf("point %d: estimate entry missing from the Resolve store", i)
					}
					if _, ok := refStore.GetEstimate(o.Key); !ok {
						t.Fatalf("point %d: estimate entry missing from the reference store", i)
					}
				}
			}
			n, _ := store.Count()
			if m, _ := refStore.Count(); n != m || n != len(got.Points) {
				t.Fatalf("stores hold %d and %d entries, want %d each", n, m, len(got.Points))
			}

			// Second pass: nothing simulates; in-band points are store hits.
			again := resolveAll(t, e, space, tc.plan)
			for i, o := range again.Outcomes {
				if o.Fidelity == FidelityExact && !o.Cached {
					t.Fatalf("point %d re-simulated on the second pass", i)
				}
			}
			againDir := t.TempDir()
			writeArtifacts(t, again, againDir)
			compareDirs(t, wantDir, againDir)
		})
	}
}
