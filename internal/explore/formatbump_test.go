package explore

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/machine"
	"upim/internal/prim"
)

// writtenLegacyEntry is the per-file JSON envelope exactly as the builds
// before the segment layout wrote it (legacyEntry is what the store still
// decodes of it: everything but the point).
type writtenLegacyEntry struct {
	Format   int                `json:"format"`
	Key      string             `json:"key"`
	Point    engine.Point       `json:"point"`
	Fidelity string             `json:"fidelity"`
	Result   *prim.Result       `json:"result,omitempty"`
	Estimate *estimate.Estimate `json:"estimate,omitempty"`
}

// writeLegacy leaves ent at dir/<key[:2]>/<key>.json, where a pre-segment
// build would have: the format-bump and tampering tests write legacy files on
// purpose, which keeps the store's fallback reader covered.
func writeLegacy(t *testing.T, st *Store, key string, ent any) {
	t.Helper()
	data, err := json.Marshal(ent)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// fabricateStale writes a syntactically valid entry for key carrying an old
// store format version, as a pre-bump process would have left it on disk.
func fabricateStale(t *testing.T, st *Store, key string, format int, ep engine.Point) {
	t.Helper()
	writeLegacy(t, st, key, writtenLegacyEntry{
		Format:   format,
		Key:      key,
		Point:    ep,
		Fidelity: FidelityExact,
		Result:   &prim.Result{Benchmark: ep.Benchmark, Tasklets: 16, DPUs: ep.DPUs},
	})
}

// TestStoreFormatBumpDegrades pins the format-4 bump contract: entries
// written by the pre-arch formats (2 and 3) are never served — each Get
// counts them corrupt and misses, so a stale store degrades to
// re-simulation instead of leaking results whose keys were implicitly
// UPMEM-only into a cross-architecture exploration.
func TestStoreFormatBumpDegrades(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	key := KeyOf(ep)
	for _, format := range []int{2, 3} {
		fabricateStale(t, st, key, format, ep)
		before := st.Stats()
		if _, ok := st.Get(key); ok {
			t.Fatalf("format-%d entry served into a format-%d store", format, storeFormat)
		}
		if _, ok := st.GetEstimate(key); ok {
			t.Fatalf("format-%d entry served as an estimate", format)
		}
		after := st.Stats()
		if after.Corrupt != before.Corrupt+2 || after.Misses != before.Misses+2 {
			t.Fatalf("format-%d entry: corrupt %d->%d misses %d->%d, want both +2",
				format, before.Corrupt, after.Corrupt, before.Misses, after.Misses)
		}
	}

	// A fresh Put supersedes the stale entry and serves normally again.
	if err := st.Put(key, ep, &prim.Result{Benchmark: "VA", Tasklets: 16, DPUs: 1}); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); !ok {
		t.Fatal("re-simulated entry not served after overwriting a stale one")
	}
}

// TestPutEstimateIgnoresStaleExact pins the never-downgrade probe against
// stale formats: an old-format "exact" entry must not block PutEstimate —
// it is invalid, so the estimate replaces it and is served.
func TestPutEstimateIgnoresStaleExact(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	key := KeyOf(ep)
	fabricateStale(t, st, key, 3, ep)

	est, err := estimate.New(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	e, err := est.Estimate(ep)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.PutEstimate(key, ep, e); err != nil {
		t.Fatal(err)
	}
	got, ok := st.GetEstimate(key)
	if !ok {
		t.Fatal("estimate not served: the stale exact entry blocked PutEstimate")
	}
	if got.KernelCycles != e.KernelCycles {
		t.Fatalf("estimate round trip: got %v kernel cycles, want %v", got.KernelCycles, e.KernelCycles)
	}
}

// TestKeysAreArchitectureDisjoint pins the content-address property the
// whole cross-architecture story rests on: the same workload on different
// machines has different keys, so one architecture's result can never
// satisfy another's lookup.
func TestKeysAreArchitectureDisjoint(t *testing.T) {
	base := engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 2, Scale: prim.ScaleTiny}
	hbm := base
	hbm.Machine = machine.HBMPIM()
	grouped := base
	grouped.Machine = machine.HBMPIM()
	grouped.Machine.CommandMode = machine.CommandBankGroup

	keys := map[string]string{
		"upmem":          KeyOf(base),
		"hbm-pim":        KeyOf(hbm),
		"hbm-pim/groups": KeyOf(grouped),
	}
	seen := map[string]string{}
	for name, k := range keys {
		if prev, dup := seen[k]; dup {
			t.Fatalf("machines %q and %q share store key %s", prev, name, k)
		}
		seen[k] = name
	}
}

// TestStaleEntryNeverServedCrossArchitecture tampers an UPMEM result onto
// an hbm-pim point's legacy key path: the embedded key no longer matches, so
// the store treats it as corrupt and the exploration re-simulates on the
// right backend instead of serving a UPMEM result as HBM-PIM.
func TestStaleEntryNeverServedCrossArchitecture(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	up := engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	hbm := up
	hbm.Machine = machine.HBMPIM()
	hbmKey := KeyOf(hbm)
	writeLegacy(t, st, hbmKey, writtenLegacyEntry{
		Format: storeFormat, Key: KeyOf(up), Point: up, Fidelity: FidelityExact,
		Result: &prim.Result{Benchmark: "GEMV", Tasklets: 16, DPUs: 1},
	})

	if _, ok := st.Get(hbmKey); ok {
		t.Fatal("a UPMEM entry copied onto an hbm-pim key was served")
	}
	if st.Stats().Corrupt == 0 {
		t.Fatal("cross-architecture tampering not counted corrupt")
	}

	// The exploration path re-simulates the point on the right backend.
	x, err := New(Options{Parallelism: 1, Store: st}).Explore(context.Background(), archSpace("GEMV"))
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range x.Outcomes {
		if o.Key != hbmKey {
			continue
		}
		if o.Cached {
			t.Fatal("tampered hbm-pim point served from the store")
		}
		if o.Result.Arch != machine.ArchHBMPIM {
			t.Fatalf("re-simulated point came back with arch %q", o.Result.Arch)
		}
	}
}

// archSpace is a tiny single-benchmark cross-architecture space.
func archSpace(bench string) *Space {
	s := NewSpace([]string{bench}, Archs(machine.ArchUPMEM, machine.ArchHBMPIM))
	s.Scale = prim.ScaleTiny
	return s
}
