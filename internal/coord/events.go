package coord

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event types of the machine-readable events log, one JSON object per line.
// Lease events trace the state machine; point events trace per-point work
// (Key carries the point's content address, so "no point simulated twice"
// is checkable by grepping the log).
const (
	EventWorkerStart = "worker_start"
	EventWorkerExit  = "worker_exit"

	EventLeaseGrant    = "lease_grant"
	EventLeaseRenew    = "lease_renew"
	EventLeaseExpire   = "lease_expire"
	EventLeaseReclaim  = "lease_reclaim"
	EventLeaseComplete = "lease_complete"
	// EventLeaseReject marks a renew/complete with a stale lease (the
	// double-claim / zombie-worker case).
	EventLeaseReject = "lease_reject"
	// EventLeaseLost is a worker-side event: it noticed its lease is gone and
	// abandoned the shard's remaining points.
	EventLeaseLost = "lease_lost"

	EventPointCached    = "point_cached"
	EventPointSimulated = "point_simulated"
	EventPointEstimated = "point_estimated"
	EventPointFailed    = "point_failed"

	EventMergeStart = "merge_start"
	// EventMergeSimulated marks a point the final merge had to re-simulate —
	// a worker failure, a reclaimed half-done shard killed before the store
	// write, or a corrupt entry. Zero of these on a healthy run is the
	// no-duplicate-work invariant.
	EventMergeSimulated = "merge_simulated"
	EventMergeDone      = "merge_done"
)

// Event is one line of the events log. Shard and Point use -1 for "not
// applicable" so index 0 stays representable.
type Event struct {
	Seq  int64     `json:"seq"`
	Time time.Time `json:"time"`
	Type string    `json:"type"`
	// Worker names the acting worker ("w2", "merge" for the final merge
	// pass); empty for coordinator-internal events.
	Worker string `json:"worker,omitempty"`
	Shard  int    `json:"shard"`
	Lease  string `json:"lease,omitempty"`
	// Point is the point's index in the space enumeration; Key its content
	// address in the store.
	Point int    `json:"point"`
	Key   string `json:"key,omitempty"`
	Err   string `json:"err,omitempty"`
}

// Log is a concurrency-safe JSONL event sink. A nil Log discards events, so
// logging stays optional everywhere.
type Log struct {
	mu  sync.Mutex
	enc *json.Encoder
	seq int64
	now func() time.Time
}

// NewLog writes events to w as JSON lines.
func NewLog(w io.Writer) *Log {
	return &Log{enc: json.NewEncoder(w), now: time.Now}
}

// emit stamps and writes one event; -1 fills unset Shard/Point slots when
// the zero value was not explicitly meaningful (emit sites always set both
// fields, so zeroes here mean "not applicable").
func (l *Log) emit(e Event) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.seq++
	e.Seq = l.seq
	e.Time = l.now()
	// Encode errors are unrecoverable mid-run (a torn log is still parseable
	// up to the tear) and must never fail the exploration itself.
	_ = l.enc.Encode(e)
}

// point is the emit helper for per-point events.
func (l *Log) point(typ, worker string, shard, point int, key string, err error) {
	e := Event{Type: typ, Worker: worker, Shard: shard, Point: point, Key: key}
	if err != nil {
		e.Err = err.Error()
	}
	l.emit(e)
}

// ParseEvents reads back a JSONL events log. A line torn by a killed
// process mid-write is dropped when it is the final line, and also when a
// rerun appending to the same file (`pathfind -events` opens it O_APPEND)
// wrote its first event onto it: that event starts a fresh Log at seq 1,
// and Log always encodes "seq" first, so it is recovered whole from the
// line's last `{"seq":`. Any other malformed line is an error.
func ParseEvents(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	for n := 1; sc.Scan(); n++ {
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var e Event
		err := json.Unmarshal(line, &e)
		if i := bytes.LastIndex(line, []byte(`{"seq":`)); err != nil && i > 0 {
			var appended Event
			if json.Unmarshal(line[i:], &appended) == nil && appended.Seq == 1 {
				e, err = appended, nil
			}
		}
		if err != nil {
			if !sc.Scan() { // final line: tolerate the tear
				return events, nil
			}
			return nil, fmt.Errorf("coord: events log line %d: %w", n, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("coord: reading events log: %w", err)
	}
	return events, nil
}

// Progress is one live snapshot of a coordinated exploration, streamed to
// OnProgress as points resolve: how much of the space is done, the fidelity
// split, the work the store saved or lost, and the current frontier size.
type Progress struct {
	// Total points in the space; Done points resolved so far (any fidelity).
	Total, Done int
	// Cached/Simulated/Estimated/Failed split Done by how each point
	// resolved during the worker phase.
	Cached, Simulated, Estimated, Failed int
	// MergeSimulated counts points the final merge re-simulated (corrupt or
	// missing entries); nonzero values mean finished work was lost or
	// damaged.
	MergeSimulated int
	// Corrupt is the store backend's corrupt-entry counter: entries that
	// existed but failed to decode and silently degraded to re-simulation.
	// Surfaced here so a damaged store is visible, not silent.
	Corrupt int64
	// ParetoSize is the current total Pareto-frontier size across benchmarks
	// under the default time/cost goals — the live "is the frontier still
	// moving" readout.
	ParetoSize int
	// Coordination is the lease-level view.
	Coordination Status
}

// String renders the one-line terminal form.
func (p Progress) String() string {
	s := fmt.Sprintf("%d/%d points (%d cached, %d simulated, %d estimated, %d failed) | shards %d/%d done, %d leased | pareto %d",
		p.Done, p.Total, p.Cached, p.Simulated, p.Estimated, p.Failed,
		p.Coordination.Done, p.Coordination.Shards, p.Coordination.Leased, p.ParetoSize)
	if p.Corrupt > 0 {
		s += fmt.Sprintf(" | %d corrupt entries re-simulated", p.Corrupt)
	}
	if p.MergeSimulated > 0 {
		s += fmt.Sprintf(" | %d merge re-simulations", p.MergeSimulated)
	}
	return s
}
