// Package storetest is the conformance suite every explore.Backend must
// pass: fidelity isolation, never-downgrade (within a handle and across
// handles), corrupt-entry degradation and concurrent Put/Get. The local-dir
// store and the HTTP backend both run it (explore's backend tests); a new
// backend earns its place in the explorer by passing Run against its own
// constructor.
package storetest

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/explore"
	"upim/internal/host"
	"upim/internal/prim"
)

// Harness is one backend under test. New builds a fresh, empty backend per
// subtest. Corrupt overwrites the stored entry for a key with undecodable
// bytes wherever the entries physically live (for remote backends that means
// server-side); nil skips the corruption subtests.
type Harness struct {
	New     func(t *testing.T) explore.Backend
	Corrupt func(t *testing.T, b explore.Backend, key string)
	// CorruptCount returns the backend's corrupt-entry counter wherever the
	// entries physically live (for remote backends that means server-side);
	// nil falls back to b.Stats().Corrupt. Used by the corrupt-accounting
	// subtest, which needs the counter of whichever process does the reads.
	CorruptCount func(t *testing.T, b explore.Backend) int64
	// Peer opens another, independent handle onto the entries b holds — the
	// view a second process sharing the store would have (for remote
	// backends: a second server over the same entries, and its client). nil
	// skips the cross-handle subtest.
	Peer func(t *testing.T, b explore.Backend) explore.Backend
}

// testKey fabricates a valid-shaped content address: deterministic 64-char
// hex per index, disjoint from any real point's key.
func testKey(i int) string {
	return fmt.Sprintf("%064x", 0xc0de0000+i)
}

// testPoint fabricates the point recorded alongside entries.
func testPoint(i int) engine.Point {
	return engine.Point{Benchmark: "VA", DPUs: 1 + i%4, Scale: prim.ScaleTiny}
}

// testResult fabricates a decodable cycle-exact result whose identity
// survives a JSON round trip (all-float/int fields).
func testResult(i int) *prim.Result {
	return &prim.Result{
		Benchmark: "VA",
		Tasklets:  1 + i%16,
		DPUs:      1 + i%4,
		Report:    host.Report{KernelSeconds: 1e-3 * float64(i+1), Launches: 1},
	}
}

// testEstimate fabricates a tier-A estimate.
func testEstimate(i int) *estimate.Estimate {
	return &estimate.Estimate{
		Calibration:     "storetest",
		KernelCycles:    float64(1000 * (i + 1)),
		KernelSeconds:   1e-4 * float64(i+1),
		TransferSeconds: 2e-4,
		TotalSeconds:    float64(1e-4*float64(i+1)) + 2e-4,
	}
}

// sameJSON compares two values by canonical JSON — the round-trip identity
// the store contract actually promises (float64 survives JSON exactly).
func sameJSON(t *testing.T, want, got any) {
	t.Helper()
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	if string(w) != string(g) {
		t.Fatalf("entry did not round-trip:\nwant %s\ngot  %s", w, g)
	}
}

// Run drives the full conformance suite against the harness.
func Run(t *testing.T, h Harness) {
	t.Run("ExactRoundTrip", func(t *testing.T) {
		b := h.New(t)
		key := testKey(1)
		if _, ok := b.Get(key); ok {
			t.Fatal("Get on an empty backend hit")
		}
		want := testResult(1)
		if err := b.Put(key, testPoint(1), want); err != nil {
			t.Fatal(err)
		}
		got, ok := b.Get(key)
		if !ok {
			t.Fatal("Get missed a just-put exact entry")
		}
		sameJSON(t, want, got)
		n, err := b.Count()
		if err != nil || n != 1 {
			t.Fatalf("Count = %d, %v; want 1", n, err)
		}
	})

	t.Run("NilPayloadsRejected", func(t *testing.T) {
		b := h.New(t)
		if err := b.Put(testKey(2), testPoint(2), nil); err == nil {
			t.Fatal("Put accepted a nil result")
		}
		if err := b.PutEstimate(testKey(2), testPoint(2), nil); err == nil {
			t.Fatal("PutEstimate accepted a nil estimate")
		}
	})

	t.Run("FidelityIsolation", func(t *testing.T) {
		b := h.New(t)
		key := testKey(3)
		if err := b.PutEstimate(key, testPoint(3), testEstimate(3)); err != nil {
			t.Fatal(err)
		}
		// An estimate is never served as cycle-exact.
		if _, ok := b.Get(key); ok {
			t.Fatal("Get served an estimate-fidelity entry as exact")
		}
		got, ok := b.GetEstimate(key)
		if !ok {
			t.Fatal("GetEstimate missed a just-put estimate")
		}
		sameJSON(t, testEstimate(3), got)

		// And an exact entry is never served as an estimate.
		exactKey := testKey(4)
		if err := b.Put(exactKey, testPoint(4), testResult(4)); err != nil {
			t.Fatal(err)
		}
		if _, ok := b.GetEstimate(exactKey); ok {
			t.Fatal("GetEstimate served an exact-fidelity entry as an estimate")
		}
	})

	t.Run("NeverDowngrade", func(t *testing.T) {
		b := h.New(t)
		key := testKey(5)
		want := testResult(5)
		if err := b.Put(key, testPoint(5), want); err != nil {
			t.Fatal(err)
		}
		// An estimate over an exact entry is discarded, not a downgrade.
		if err := b.PutEstimate(key, testPoint(5), testEstimate(5)); err != nil {
			t.Fatal(err)
		}
		got, ok := b.Get(key)
		if !ok {
			t.Fatal("exact entry lost after a PutEstimate on the same key")
		}
		sameJSON(t, want, got)
		if _, ok := b.GetEstimate(key); ok {
			t.Fatal("PutEstimate downgraded an exact entry")
		}
	})

	t.Run("ExactBeatsEstimateAcrossHandles", func(t *testing.T) {
		if h.Peer == nil {
			t.Skip("harness has no second handle")
		}
		a := h.New(t)
		// Opened before a's Put: whatever view of the entries it keeps is
		// stale by the time it writes.
		stale := h.Peer(t, a)
		key := testKey(12)
		want := testResult(12)
		if err := a.Put(key, testPoint(12), want); err != nil {
			t.Fatal(err)
		}
		if err := stale.PutEstimate(key, testPoint(12), testEstimate(12)); err != nil {
			t.Fatal(err)
		}
		for name, b := range map[string]explore.Backend{"writer": a, "stale": stale, "late": h.Peer(t, a)} {
			got, ok := b.Get(key)
			if !ok {
				t.Fatalf("%s handle: exact entry lost to another handle's PutEstimate", name)
			}
			sameJSON(t, want, got)
			if _, ok := b.GetEstimate(key); ok {
				t.Fatalf("%s handle: another handle's PutEstimate downgraded an exact entry", name)
			}
		}
	})

	t.Run("ExactUpgradesEstimate", func(t *testing.T) {
		b := h.New(t)
		key := testKey(6)
		if err := b.PutEstimate(key, testPoint(6), testEstimate(6)); err != nil {
			t.Fatal(err)
		}
		want := testResult(6)
		if err := b.Put(key, testPoint(6), want); err != nil {
			t.Fatal(err)
		}
		got, ok := b.Get(key)
		if !ok {
			t.Fatal("Get missed after an exact upgrade")
		}
		sameJSON(t, want, got)
		if _, ok := b.GetEstimate(key); ok {
			t.Fatal("estimate survived an exact upgrade")
		}
	})

	t.Run("CorruptEntryDegrades", func(t *testing.T) {
		if h.Corrupt == nil {
			t.Skip("harness has no corruption hook")
		}
		b := h.New(t)
		key := testKey(7)
		if err := b.Put(key, testPoint(7), testResult(7)); err != nil {
			t.Fatal(err)
		}
		h.Corrupt(t, b, key)
		// A corrupt entry is a miss — degrade to re-simulation, never serve
		// damaged bytes.
		if _, ok := b.Get(key); ok {
			t.Fatal("Get served a corrupted entry")
		}
		// The next Put repairs it.
		want := testResult(8)
		if err := b.Put(key, testPoint(7), want); err != nil {
			t.Fatal(err)
		}
		got, ok := b.Get(key)
		if !ok {
			t.Fatal("Get missed after repairing a corrupted entry")
		}
		sameJSON(t, want, got)
	})

	t.Run("CorruptCountedOncePerRead", func(t *testing.T) {
		if h.Corrupt == nil {
			t.Skip("harness has no corruption hook")
		}
		b := h.New(t)
		count := func() int64 {
			if h.CorruptCount != nil {
				return h.CorruptCount(t, b)
			}
			return b.Stats().Corrupt
		}
		// Estimate path: GetEstimate on a corrupt entry books it once; the
		// retry's PutEstimate probes the same entry for never-downgrade, and
		// that write-side probe must NOT book it again.
		key := testKey(9)
		if err := b.PutEstimate(key, testPoint(9), testEstimate(9)); err != nil {
			t.Fatal(err)
		}
		h.Corrupt(t, b, key)
		before := count()
		if _, ok := b.GetEstimate(key); ok {
			t.Fatal("GetEstimate served a corrupted entry")
		}
		if got := count(); got != before+1 {
			t.Fatalf("Corrupt after read = %d, want %d", got, before+1)
		}
		if err := b.PutEstimate(key, testPoint(9), testEstimate(10)); err != nil {
			t.Fatal(err)
		}
		if got := count(); got != before+1 {
			t.Fatalf("Corrupt after repair PutEstimate = %d, want %d (write-side probe double-counted)", got, before+1)
		}
		if _, ok := b.GetEstimate(key); !ok {
			t.Fatal("GetEstimate missed after repairing a corrupted entry")
		}

		// Exact path: Get books once, the repairing Put books nothing.
		key = testKey(10)
		if err := b.Put(key, testPoint(10), testResult(10)); err != nil {
			t.Fatal(err)
		}
		h.Corrupt(t, b, key)
		before = count()
		if _, ok := b.Get(key); ok {
			t.Fatal("Get served a corrupted entry")
		}
		if got := count(); got != before+1 {
			t.Fatalf("Corrupt after exact read = %d, want %d", got, before+1)
		}
		if err := b.Put(key, testPoint(10), testResult(11)); err != nil {
			t.Fatal(err)
		}
		if got := count(); got != before+1 {
			t.Fatalf("Corrupt after repair Put = %d, want %d", got, before+1)
		}
	})

	t.Run("ConcurrentPutGet", func(t *testing.T) {
		b := h.New(t)
		const (
			writers = 8
			keys    = 16
		)
		var wg sync.WaitGroup
		errs := make(chan error, writers*keys)
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := 0; k < keys; k++ {
					// All writers race on the same key set; the deterministic
					// simulator guarantees racing writes carry equal payloads,
					// so any winner is correct.
					if err := b.Put(testKey(100+k), testPoint(k), testResult(k)); err != nil {
						errs <- err
						return
					}
					if res, ok := b.Get(testKey(100 + k)); ok && res == nil {
						errs <- fmt.Errorf("Get returned ok with a nil result")
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		for k := 0; k < keys; k++ {
			got, ok := b.Get(testKey(100 + k))
			if !ok {
				t.Fatalf("key %d missing after concurrent writes", k)
			}
			sameJSON(t, testResult(k), got)
		}
	})
}
