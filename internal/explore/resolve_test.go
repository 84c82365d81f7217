package explore

import (
	"context"
	"testing"

	"upim/internal/prim"
)

// resolveAll drives a space the way a coordinator worker does: one Resolve
// per index, in order, on the calling goroutine.
func resolveAll(t *testing.T, e *Explorer, space *Space) *Exploration {
	t.Helper()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	x := &Exploration{Space: space, Points: pts, Outcomes: make([]Outcome, len(pts))}
	for i, p := range pts {
		x.Outcomes[i] = e.Resolve(context.Background(), p, i)
		if err := x.Outcomes[i].Err; err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	return x
}

// TestResolveMatchesExplore pins the one-driver claim from the outside:
// resolving every index one by one into a fresh store is indistinguishable —
// outcomes, store contents, artifact bytes — from Explore into another fresh
// store, and a second pass over the same store simulates nothing.
func TestResolveMatchesExplore(t *testing.T) {
	ctx := context.Background()
	space := NewSpace([]string{"VA"}, Tasklets(1, 4, 16), LinkScale(1, 2), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny

	t.Run("exact", func(t *testing.T) {
		refStore, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		want, err := New(Options{Parallelism: 4, Store: refStore}).Explore(ctx, space)
		if err != nil {
			t.Fatal(err)
		}

		store, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		e := New(Options{Parallelism: 1, Store: store})
		got := resolveAll(t, e, space)
		wantDir, gotDir := t.TempDir(), t.TempDir()
		writeArtifacts(t, want, wantDir)
		writeArtifacts(t, got, gotDir)
		compareDirs(t, wantDir, gotDir)
		for i, o := range got.Outcomes {
			w := want.Outcomes[i]
			if o.Key != w.Key || o.Fidelity != w.Fidelity || o.Cached {
				t.Fatalf("point %d: got key %s fidelity %q cached %v, want key %s fidelity %q",
					i, o.Key, o.Fidelity, o.Cached, w.Key, w.Fidelity)
			}
		}
		n, _ := store.Count()
		if m, _ := refStore.Count(); n != m || n != len(got.Points) {
			t.Fatalf("stores hold %d and %d entries, want %d each", n, m, len(got.Points))
		}

		// Second pass: nothing simulates; every point is a store hit.
		again := resolveAll(t, e, space)
		for i, o := range again.Outcomes {
			if !o.Cached {
				t.Fatalf("point %d re-simulated on the second pass", i)
			}
		}
		againDir := t.TempDir()
		writeArtifacts(t, again, againDir)
		compareDirs(t, wantDir, againDir)
	})
}
