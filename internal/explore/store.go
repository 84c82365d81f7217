package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// storeFormat versions the on-disk entry layout AND the semantic meaning of
// a key: bump it whenever the simulator changes in a way that invalidates
// previously stored results (a new stats counter, a timing-model fix, ...).
// Entries from other formats are never returned, so stale stores degrade to
// re-simulation instead of serving wrong numbers.
//
// Format history: 2 added the energy-model event counters (rf_reads,
// rf_writes, cache array accesses) and Result.Config, which the energy
// goals integrate — format-1 results would yield zero energy. 3 added the
// fidelity tag distinguishing cycle-exact results from analytical estimates
// (two-tier exploration): an entry without a known fidelity is never served,
// so a store written by a newer format — or a tampered one — degrades to
// re-simulation instead of silently passing an estimate off as cycle-exact.
// 4 added the machine description (engine.Point.Machine) and Result.Arch for
// multi-architecture exploration: format-3 keys were implicitly UPMEM-only,
// so a pre-arch store must never have an entry served into — or alias a key
// of — a cross-architecture exploration.
const storeFormat = 4

// Fidelity values of a store entry (and of an exploration outcome).
const (
	// FidelityExact marks a cycle-exact simulation result.
	FidelityExact = "exact"
	// FidelityEstimate marks an analytical tier-A estimate (internal/estimate)
	// that was never validated by simulation.
	FidelityEstimate = "estimate"
)

// KeyOf returns the content address of a simulation point: a SHA-256 over
// the store format version and the point's canonical JSON — benchmark,
// full hardware configuration, DPU count, dataset scale and watchdog. Two
// points share a key exactly when the simulator would produce identical
// results for them (the simulator is deterministic), which is what lets
// interrupted or repeated explorations reuse each other's finished points.
func KeyOf(p engine.Point) string {
	rec := struct {
		Format int          `json:"format"`
		Point  engine.Point `json:"point"`
	}{storeFormat, p}
	buf, data, err := marshalPooled(rec)
	if err != nil {
		// engine.Point is plain data; Marshal cannot fail on it.
		panic(fmt.Sprintf("explore: marshaling point key: %v", err))
	}
	sum := sha256.Sum256(data)
	jsonBufs.Put(buf)
	return hex.EncodeToString(sum[:])
}

// jsonBufs pools the buffers entries are encoded into and read back through:
// key hashing, entry writes and entry reads run once per point in
// sweep/exploration loops, and reusing the buffer keeps those loops from
// re-growing a multi-KB buffer every point.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalPooled encodes v into a pooled buffer and returns the buffer plus
// the canonical bytes. The bytes alias the buffer, which the caller returns
// to jsonBufs when done with them. The result is exactly json.Marshal's: the
// encoder's trailing newline is stripped, keeping content addresses and the
// on-disk format byte-identical to the pre-pooling ones.
func marshalPooled(v any) (*bytes.Buffer, []byte, error) {
	buf := jsonBufs.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufs.Put(buf)
		return nil, nil, err
	}
	b := buf.Bytes()
	return buf, b[:len(b)-1], nil
}

// entry is the on-disk envelope of one stored result. Point is stored
// alongside the result for debuggability (a store is greppable without the
// code that produced it).
type entry struct {
	Format int         `json:"format"`
	Key    string      `json:"key"`
	Point  storedPoint `json:"point"`
	// Fidelity is FidelityExact or FidelityEstimate; exactly one of Result
	// and Estimate is set, matching it.
	Fidelity string             `json:"fidelity"`
	Result   *prim.Result       `json:"result,omitempty"`
	Estimate *estimate.Estimate `json:"estimate,omitempty"`
}

// storedPoint is engine.Point as an entry carries it: encoded exactly like
// the engine point, and scanned over, not decoded, when an entry is read back
// — nothing a read serves comes from it (the key is its content address).
type storedPoint engine.Point

func (*storedPoint) UnmarshalJSON([]byte) error { return nil }

// StoreStats counts store activity for one process.
type StoreStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Puts counts successfully persisted results.
	Puts int64
	// Corrupt counts entries that existed but could not be read, failed to
	// decode or carried a stale format/key; they are treated as misses and
	// overwritten by the next Put.
	Corrupt int64
}

// Store is a persistent, content-addressed result store: one JSON file per
// simulation point under dir/<key[:2]>/<key>.json, written atomically
// (temp file + rename) so a killed exploration never leaves a truncated
// entry behind. Results survive across processes, so resumed or repeated
// explorations — even ones sharing only some points — never re-simulate a
// finished point. All methods are safe for concurrent use.
type Store struct {
	dir string

	hits, misses, puts, corrupt atomic.Int64
}

// OpenStore opens (creating if needed) a result store rooted at dir.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("explore: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: opening store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Stats snapshots this process's store counters.
func (s *Store) Stats() StoreStats {
	if s == nil {
		return StoreStats{}
	}
	return StoreStats{
		Hits:    s.hits.Load(),
		Misses:  s.misses.Load(),
		Puts:    s.puts.Load(),
		Corrupt: s.corrupt.Load(),
	}
}

// path maps a key to its entry file.
func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// load reads and validates the entry for key, counting the outcome in the
// read-side stats. Undecodable entries, stale formats, mismatched keys and
// unknown fidelity values all count as corrupt and report a miss, so a
// stale or damaged store re-simulates rather than failing the exploration —
// and, crucially, an entry whose fidelity this code does not recognize is
// never served at all.
func (s *Store) load(key string) (*entry, bool) {
	e, existed, ok := s.peek(key)
	if !ok {
		if existed {
			s.corrupt.Add(1)
		}
		s.misses.Add(1)
	}
	return e, ok
}

// peek reads and validates the entry for key WITHOUT touching the stats
// counters: existed reports whether an entry was present at all (so a
// counting caller can classify an invalid one as corrupt) — only a path that
// does not exist is a clean miss; any other read failure is an entry that
// could not be served. Write-side probes — PutEstimate's never-downgrade
// check — use peek directly, so a corrupt entry that already degraded a
// Get/GetEstimate to a miss is not double-counted when the retry writes its
// replacement back.
func (s *Store) peek(key string) (e *entry, existed, ok bool) {
	f, err := os.Open(s.path(key))
	if err != nil {
		return nil, !errors.Is(err, fs.ErrNotExist), false
	}
	buf := jsonBufs.Get().(*bytes.Buffer)
	defer jsonBufs.Put(buf)
	buf.Reset()
	_, err = buf.ReadFrom(f)
	f.Close()
	var ent entry // copies what it keeps, so the buffer can go back to the pool
	if err != nil || json.Unmarshal(buf.Bytes(), &ent) != nil || ent.Format != storeFormat || ent.Key != key {
		return nil, true, false
	}
	if (ent.Fidelity == FidelityExact && ent.Result != nil) || (ent.Fidelity == FidelityEstimate && ent.Estimate != nil) {
		return &ent, true, true
	}
	return nil, true, false
}

// Get returns the stored cycle-exact result for key, or ok=false when the
// point has not been simulated yet. Estimate-fidelity entries are NOT served
// here: an estimate is never passed off as cycle-exact (they miss without
// counting as corrupt). A nil store always misses.
func (s *Store) Get(key string) (*prim.Result, bool) {
	if s == nil {
		return nil, false
	}
	e, ok := s.load(key)
	if !ok {
		return nil, false
	}
	if e.Fidelity != FidelityExact {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.Result, true
}

// GetEstimate returns the stored tier-A estimate for key, or ok=false when
// the entry is absent or holds any other fidelity. A nil store always
// misses.
func (s *Store) GetEstimate(key string) (*estimate.Estimate, bool) {
	if s == nil {
		return nil, false
	}
	e, ok := s.load(key)
	if !ok {
		return nil, false
	}
	if e.Fidelity != FidelityEstimate {
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	return e.Estimate, true
}

// Put persists one cycle-exact result atomically, overwriting any previous
// entry for the key (including an estimate — exact always upgrades). A nil
// store discards the result.
func (s *Store) Put(key string, p engine.Point, res *prim.Result) error {
	if s == nil {
		return nil
	}
	if res == nil {
		return fmt.Errorf("explore: refusing to store a nil result for %s", key)
	}
	return s.write(key, entry{Format: storeFormat, Key: key, Point: storedPoint(p), Fidelity: FidelityExact, Result: res})
}

// PutEstimate persists one tier-A estimate atomically under the estimate
// fidelity tag. It never downgrades: when the key already holds a valid
// cycle-exact entry, the estimate is discarded and the exact entry kept. Nor
// does it rewrite an entry that already holds this very estimate, so a
// resumed two-tier exploration leaves its store untouched. A nil store
// discards the estimate.
func (s *Store) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	if s == nil {
		return nil
	}
	if est == nil {
		return fmt.Errorf("explore: refusing to store a nil estimate for %s", key)
	}
	// peek, not load: this probe is a write-side check, and counting it
	// would double-book a corrupt entry the preceding GetEstimate already
	// booked (and inflate Misses with probes that never served a read).
	if e, _, ok := s.peek(key); ok && (e.Fidelity == FidelityExact || *e.Estimate == *est) {
		return nil
	}
	return s.write(key, entry{Format: storeFormat, Key: key, Point: storedPoint(p), Fidelity: FidelityEstimate, Estimate: est})
}

// write atomically persists one entry (temp file + rename).
func (s *Store) write(key string, e entry) error {
	buf, data, err := marshalPooled(e)
	if err != nil {
		return fmt.Errorf("explore: encoding %s: %w", key, err)
	}
	defer jsonBufs.Put(buf)
	dir := filepath.Dir(s.path(key))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("explore: store: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: store: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: store: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("explore: store: %w", err)
	}
	s.puts.Add(1)
	return nil
}

// CorruptEntry overwrites the on-disk entry for key with undecodable bytes —
// fault-injection support (coord.FaultPlan, the storetest conformance suite)
// for proving that damaged entries degrade to re-simulation. It fails when
// the key has no entry to corrupt.
func (s *Store) CorruptEntry(key string) error {
	path := s.path(key)
	if _, err := os.Stat(path); err != nil {
		return fmt.Errorf("explore: corrupting %s: %w", key, err)
	}
	if err := os.WriteFile(path, []byte("{corrupted by fault injection"), 0o644); err != nil {
		return fmt.Errorf("explore: corrupting %s: %w", key, err)
	}
	return nil
}

// Count walks the store and returns how many entries it holds on disk (all
// processes' contributions, not just this one's).
func (s *Store) Count() (int, error) {
	if s == nil {
		return 0, nil
	}
	n := 0
	err := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".json") && !strings.HasPrefix(d.Name(), ".") {
			n++
		}
		return nil
	})
	if err != nil {
		return 0, fmt.Errorf("explore: counting store entries: %w", err)
	}
	return n, nil
}
