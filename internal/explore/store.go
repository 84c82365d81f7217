package explore

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// storeFormat versions the semantic meaning of a key (the segment layout
// carries its own version in the segment header): bump it whenever the
// simulator changes in a way that invalidates previously stored results (a
// new stats counter, a timing-model fix, ...). The format is hashed into
// every key, so an old format's records become unreachable and stale stores
// degrade to re-simulation instead of serving wrong numbers.
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

// jsonBufs pools the buffers KeyOf hashes points from: key hashing runs once
// per point in sweep/exploration loops, and reusing the buffer keeps those
// loops from re-growing it every point.
var jsonBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// marshalPooled encodes v into a pooled buffer and returns the buffer plus
// the canonical bytes. The bytes alias the buffer, which the caller returns
// to jsonBufs when done with them. The result is exactly json.Marshal's: the
// encoder's trailing newline is stripped, keeping content addresses
// byte-identical to the pre-pooling ones.
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

// StoreStats counts store activity for one process.
type StoreStats struct {
	// Hits and Misses count Get outcomes.
	Hits, Misses int64
	// Puts counts successfully persisted results.
	Puts int64
	// Corrupt counts indexed records that could not be read, failed their
	// checksum or to decode, or carried an unknown fidelity — and segments
	// with a torn tail or another build's schema, once each. They are
	// treated as misses and superseded by the next Put.
	Corrupt int64
}

// Store is a persistent, content-addressed result store: packed records in
// append-only segment files under dir/seg (segment.go), one segment per
// handle that ever wrote, resolved through an in-memory index built by
// scanning record headers when the store is opened. A record is appended
// with a single write and checksummed, so a killed exploration leaves at
// worst a torn tail that every reader skips. Results survive across
// processes, so resumed or repeated explorations — even ones sharing only
// some points — never re-simulate a finished point. All methods are safe for
// concurrent use, within one handle and across handles on one directory.
type Store struct {
	dir, segDir string

	// mu guards the index and the segment list; a record, once indexed, is
	// read without it (segments only grow).
	mu    sync.RWMutex
	idx   map[storeKey]loc
	segs  []*segment      // in scan order
	known map[string]bool // segment file names in segs
	own   *segment        // this handle's segment; nil until its first write
	// dirMtime is the segment directory's mtime as of the last listing, taken
	// at listed.
	dirMtime, listed time.Time

	hits, misses, puts, corrupt atomic.Int64
}

// OpenStore opens (creating if needed) a result store rooted at dir and
// indexes every segment in it.
func OpenStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("explore: store directory must not be empty")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("explore: opening store: %w", err)
	}
	s := &Store{dir: dir, segDir: filepath.Join(dir, segDirName), idx: map[storeKey]loc{}, known: map[string]bool{}}
	s.refresh()
	return s, nil
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

// load serves key at one fidelity from the segment index, counting the
// outcome in the read-side stats. A key no segment holds, or a record of the
// other fidelity, is a clean miss; one that cannot be served counts as
// corrupt.
func load[T any](s *Store, key string, fid byte, pl *plan) (*T, bool) {
	if k, ok := parseKey(key); ok {
		if l, ok := s.lookup(k); ok && l.fid == fid {
			if v := new(T); s.read(k, l, pl, reflect.ValueOf(v).Elem()) {
				s.hits.Add(1)
				return v, true
			}
		}
	}
	s.misses.Add(1)
	return nil, false
}

// Get returns the stored cycle-exact result for key, or ok=false when the
// point has not been simulated yet. Estimate-fidelity entries are NOT served
// here: an estimate is never passed off as cycle-exact (they miss without
// counting as corrupt). A nil store always misses.
func (s *Store) Get(key string) (*prim.Result, bool) {
	if s == nil {
		return nil, false
	}
	return load[prim.Result](s, key, fidExact, resultPlan)
}

// GetEstimate returns the stored tier-A estimate for key, or ok=false when
// the entry is absent or holds any other fidelity. A nil store always
// misses.
func (s *Store) GetEstimate(key string) (*estimate.Estimate, bool) {
	if s == nil {
		return nil, false
	}
	return load[estimate.Estimate](s, key, fidEstimate, estimatePlan)
}

// Put persists one cycle-exact result with a single appended record, which
// supersedes any previous entry for the key (including an estimate — exact
// always upgrades). A nil store discards the result.
func (s *Store) Put(key string, p engine.Point, res *prim.Result) error {
	if s == nil {
		return nil
	}
	if res == nil {
		return fmt.Errorf("explore: refusing to store a nil result for %s", key)
	}
	k, rec, err := frame(key, fidExact, &p, resultPlan, reflect.ValueOf(res).Elem())
	if err != nil {
		return err
	}
	defer recBufs.Put(rec)
	return s.append(k, fidExact, *rec)
}

// PutEstimate persists one tier-A estimate under the estimate fidelity tag.
// It never downgrades: when the key already holds a valid cycle-exact entry,
// the estimate is discarded and the exact entry kept — and an exact record
// that lands in another handle's segment a moment later still wins, because
// every index resolves exact over estimate whatever order the two were
// written in. Nor does it write again an entry that already holds this very
// estimate, so a resumed two-tier exploration leaves its store untouched. A
// nil store discards the estimate.
func (s *Store) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	if s == nil {
		return nil
	}
	if est == nil {
		return fmt.Errorf("explore: refusing to store a nil estimate for %s", key)
	}
	k, rec, err := frame(key, fidEstimate, &p, estimatePlan, reflect.ValueOf(est).Elem())
	if err != nil {
		return err
	}
	defer recBufs.Put(rec)
	// This probe is a write-side check and touches no counter: counting it
	// would double-book a corrupt record the preceding GetEstimate already
	// booked (and inflate Misses with probes that never served a read). The
	// same key frames the same point, so equal bytes are an equal estimate.
	if l, ok := s.lookup(k); ok && (l.fid == fidExact || holds(k, l, *rec)) {
		return nil
	}
	return s.append(k, fidEstimate, *rec)
}

// CorruptEntry damages the stored record for key in place — one payload byte
// is inverted, so its checksum fails — fault-injection support for tests
// (the storetest conformance suite, coord's crash test) proving that damaged
// entries degrade to re-simulation. It fails when no segment holds the key.
func (s *Store) CorruptEntry(key string) error {
	k, _ := parseKey(key)
	l, ok := s.lookup(k)
	if !ok {
		return fmt.Errorf("explore: corrupting %s: no record", key)
	}
	// The handle's own descriptor appends wherever it is asked to write.
	f, err := os.OpenFile(l.seg.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("explore: corrupting %s: %w", key, err)
	}
	defer f.Close()
	var b [1]byte
	at := l.off + int64(l.n) - 1
	if _, err = f.ReadAt(b[:], at); err == nil {
		b[0] = ^b[0]
		_, err = f.WriteAt(b[:], at)
	}
	if err != nil {
		return fmt.Errorf("explore: corrupting %s: %w", key, err)
	}
	return nil
}

// Count returns how many distinct keys the store's segments hold (all
// processes' contributions, not just this one's): the index after a refresh.
func (s *Store) Count() (int, error) {
	if s == nil {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.refresh()
	return len(s.idx), nil
}
