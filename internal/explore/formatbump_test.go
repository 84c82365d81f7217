package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/machine"
	"upim/internal/prim"
)

// TestPerFileTreeIsIgnored pins that segments are the only layout the store
// reads. A valid current-format entry left at dir/<key[:2]>/<key>.json, where
// builds before the segment layout kept one JSON file per point, is not
// served, counted, booked corrupt or touched: the point re-simulates, and its
// Put lands in a segment and is served from there.
func TestPerFileTreeIsIgnored(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	key := KeyOf(ep)
	res := &prim.Result{Benchmark: "VA", Tasklets: 16, DPUs: 1}
	entry, err := json.Marshal(struct {
		Format   int          `json:"format"`
		Key      string       `json:"key"`
		Point    engine.Point `json:"point"`
		Fidelity string       `json:"fidelity"`
		Result   *prim.Result `json:"result"`
	}{storeFormat, key, ep, FidelityExact, res})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(st.Dir(), key[:2], key+".json")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, entry, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := st.Get(key); ok {
		t.Fatal("a per-file entry was served as exact")
	}
	if _, ok := st.GetEstimate(key); ok {
		t.Fatal("a per-file entry was served as an estimate")
	}
	if got := st.Stats(); got.Corrupt != 0 || got.Misses != 2 {
		t.Fatalf("stats %+v, want two clean misses", got)
	}
	if n, err := st.Count(); err != nil || n != 0 {
		t.Fatalf("Count = %d, %v; want an empty store", n, err)
	}

	if err := st.Put(key, ep, res); err != nil {
		t.Fatal(err)
	}
	if got, ok := st.Get(key); !ok || !reflect.DeepEqual(got, res) {
		t.Fatalf("the re-simulated result: %+v, %v", got, ok)
	}
	if segs, _ := filepath.Glob(filepath.Join(st.Dir(), segDirName, "*"+segSuffix)); len(segs) != 1 {
		t.Fatalf("segments after the Put: %v, want one", segs)
	}
	if n, err := st.Count(); err != nil || n != 1 {
		t.Fatalf("Count = %d, %v; want the one segment record", n, err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, entry) {
		t.Fatalf("the per-file entry was changed: %v", err)
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

// TestStaleEntryNeverServedCrossArchitecture damages an hbm-pim point's
// record after a cross-architecture exploration: the store books it corrupt,
// and the next exploration re-simulates the point on the right backend
// instead of serving what the damaged record holds.
func TestStaleEntryNeverServedCrossArchitecture(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	hbm := engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny, Machine: machine.HBMPIM()}
	hbmKey := KeyOf(hbm)
	run := func() *Exploration {
		t.Helper()
		x, err := New(Options{Parallelism: 1, Store: st}).Explore(context.Background(), archSpace("GEMV"))
		if err != nil {
			t.Fatal(err)
		}
		return x
	}
	run()
	if err := st.CorruptEntry(hbmKey); err != nil {
		t.Fatal(err)
	}

	x := run()
	if st.Stats().Corrupt == 0 {
		t.Fatal("the damaged hbm-pim record was not counted corrupt")
	}
	found := false
	for _, o := range x.Outcomes {
		if o.Key != hbmKey {
			if !o.Cached {
				t.Errorf("undamaged point %s re-simulated", o.Key)
			}
			continue
		}
		found = true
		if o.Cached {
			t.Fatal("damaged hbm-pim point served from the store")
		}
		if o.Result == nil || o.Result.Arch != machine.ArchHBMPIM {
			t.Fatalf("re-simulated point came back as %+v", o.Result)
		}
	}
	if !found {
		t.Fatal("the space has no point at the hbm-pim key")
	}
}

// archSpace is a tiny single-benchmark cross-architecture space.
func archSpace(bench string) *Space {
	s := NewSpace([]string{bench}, Archs(machine.ArchUPMEM, machine.ArchHBMPIM))
	s.Scale = prim.ScaleTiny
	return s
}
