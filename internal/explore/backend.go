package explore

import (
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// Backend is the store abstraction behind resumable explorations: the
// content-addressed result store reduced to the five operations the explorer
// and the coordinator actually perform. The local-dir Store is the canonical
// implementation; HTTPStore talks to a `pathfind serve` store server. Every
// implementation must preserve the store contract the conformance suite
// (storetest) pins down:
//
//   - Fidelity isolation: Get never serves an estimate-fidelity entry, and
//     GetEstimate never serves an exact one — a prediction is never passed
//     off as a cycle-exact result.
//   - Never-downgrade: PutEstimate on a key holding a valid exact entry is a
//     no-op; Put (exact) always wins.
//   - Degradation, not failure: a corrupt, stale or unreadable entry is a
//     miss (counted in Stats().Corrupt where observable), so damaged stores
//     re-simulate instead of serving wrong numbers.
//   - Concurrency: all methods are safe for concurrent use; Put is atomic
//     (a reader sees the old entry or the new one, never a torn write).
//
// Get-side failures (including transport errors on remote backends) report a
// miss: re-simulating a point the store actually held is wasteful but
// correct, which is the degradation direction the whole pipeline leans on.
// Put-side failures must be reported — a point that simulated but failed to
// persist is recorded as failed so the next run retries it.
type Backend interface {
	// Get returns the stored cycle-exact result for key, or ok=false.
	Get(key string) (*prim.Result, bool)
	// GetEstimate returns the stored tier-A estimate for key, or ok=false.
	GetEstimate(key string) (*estimate.Estimate, bool)
	// Put persists one cycle-exact result, overwriting any previous entry.
	Put(key string, p engine.Point, res *prim.Result) error
	// PutEstimate persists one estimate unless the key holds an exact entry.
	PutEstimate(key string, p engine.Point, est *estimate.Estimate) error
	// Stats snapshots this handle's activity counters.
	Stats() StoreStats
	// Count returns how many entries the backend currently holds.
	Count() (int, error)
}

// noStore is the nil-store backend: every Get misses, every Put discards.
// Explorer substitutes it when Options.Store is nil so persistence stays
// optional without nil checks on the hot path.
type noStore struct{}

func (noStore) Get(string) (*prim.Result, bool)                            { return nil, false }
func (noStore) GetEstimate(string) (*estimate.Estimate, bool)              { return nil, false }
func (noStore) Put(string, engine.Point, *prim.Result) error               { return nil }
func (noStore) PutEstimate(string, engine.Point, *estimate.Estimate) error { return nil }
func (noStore) Stats() StoreStats                                          { return StoreStats{} }
func (noStore) Count() (int, error)                                        { return 0, nil }

// resolveBackend maps a nil Options.Store (or a typed-nil *Store, which the
// pre-interface API accepted) to the no-op backend.
func resolveBackend(b Backend) Backend {
	if b == nil {
		return noStore{}
	}
	if s, ok := b.(*Store); ok && s == nil {
		return noStore{}
	}
	return b
}
