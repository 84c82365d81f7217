// Package coord turns exploration into a coordinated, fault-tolerant
// multi-worker system: a Coordinator shards the deterministic point
// enumeration of an explore.Space into leased work units, serves them over
// HTTP beside the result store (Handler), and hands leases to worker
// processes (Work) with expiry and heartbeat renewal, reclaiming shards from
// dead or stalled workers. The workers write through the shared store, and a
// resumed single-process exploration over it assembles the artifacts, so the
// byte-identical-resume contract remains the correctness oracle.
//
// # Shard determinism
//
// A shard is a contiguous index range [Start, End) of the space's row-major
// point enumeration (Space.Points order: benchmarks outermost, axes in
// declaration order). Shard membership therefore depends only on the space
// and the shard size — never on store contents, worker count, or timing —
// exactly like tier-band membership in two-tier exploration. Any process
// that can enumerate the space can validate and execute any shard, which is
// what makes leases safe to hand to remote workers that share nothing but
// the space spec and a store URL.
//
// # The lease state machine
//
// Every shard moves through three states; generation counters fence stale
// holders:
//
//	          Lease(worker)                Complete(lease)
//	PENDING ----------------> LEASED ----------------------> DONE
//	   ^                        |
//	   |     TTL expires        |  Renew(lease) extends the
//	   +------------------------+  expiry; each grant bumps
//	         (reclaim)             the shard's generation
//
// A lease names its shard and grant generation ("s3.g2"). Renew and
// Complete with a stale generation — the shard was reclaimed and possibly
// re-granted — fail with ErrLeaseLost: the zombie worker's results are
// already in the content-addressed store (harmless, deduplicated by key),
// but it cannot mark work done that the coordinator no longer credits to
// it. Correctness never depends on lease bookkeeping: the store is the
// source of truth, and the resumed exploration that merges a run
// re-simulates anything missing or corrupt. Leases only bound wasted work.
package coord

import (
	"errors"
	"fmt"
	"sync"
	"time"
)

// Lease/coordination errors.
var (
	// ErrLeaseLost reports a renew/complete with a lease the coordinator no
	// longer honors: it expired and was reclaimed (and possibly re-granted).
	ErrLeaseLost = errors.New("coord: lease lost (expired and reclaimed)")
	// ErrUnknownLease reports a malformed or never-granted lease ID.
	ErrUnknownLease = errors.New("coord: unknown lease")
)

// shardState is one shard's position in the lease state machine.
type shardState int

const (
	statePending shardState = iota
	stateLeased
	stateDone
)

// shard is the coordinator's bookkeeping for one work unit.
type shard struct {
	id         int
	start, end int
	state      shardState
	// gen counts grants of this shard; a lease embeds the generation it was
	// granted under, fencing stale holders after a reclaim.
	gen    int
	worker string
	expiry time.Time
}

// CoordinatorOptions tune a Coordinator.
type CoordinatorOptions struct {
	// ShardSize is the number of points per shard (default 8; the last shard
	// may be smaller).
	ShardSize int
	// TTL is the lease time-to-live; a worker that neither renews nor
	// completes within it is presumed dead and its shard is reclaimed
	// (default 10s).
	TTL time.Duration
	// Now overrides the clock (tests); default time.Now.
	Now func() time.Time
	// Events receives lease-protocol events; nil disables logging.
	Events *Log
}

// Status is a point-in-time snapshot of coordination progress.
type Status struct {
	Shards  int `json:"shards"`
	Points  int `json:"points"`
	Pending int `json:"pending"`
	Leased  int `json:"leased"`
	Done    int `json:"done"`
	// AllDone is true once every shard completed.
	AllDone bool `json:"all_done"`
}

// Coordinator shards [0, totalPoints) into leased work units and tracks the
// lease state machine. All methods are safe for concurrent use. The
// coordinator holds no results — workers write straight to the shared store
// — so it is cheap enough to embed in-process or behind an HTTP endpoint.
type Coordinator struct {
	mu      sync.Mutex
	shards  []*shard
	pending []int // FIFO of pending shard ids; reclaimed shards re-queue at the back
	total   int
	ttl     time.Duration
	now     func() time.Time
	events  *Log
}

// NewCoordinator shards the point index range [0, totalPoints) and queues
// every shard.
func NewCoordinator(totalPoints int, opts CoordinatorOptions) *Coordinator {
	if opts.ShardSize <= 0 {
		opts.ShardSize = 8
	}
	if opts.TTL <= 0 {
		opts.TTL = 10 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	c := &Coordinator{total: totalPoints, ttl: opts.TTL, now: opts.Now, events: opts.Events}
	for start := 0; start < totalPoints; start += opts.ShardSize {
		end := min(start+opts.ShardSize, totalPoints)
		id := len(c.shards)
		c.shards = append(c.shards, &shard{id: id, start: start, end: end})
		c.pending = append(c.pending, id)
	}
	return c
}

// leaseID renders the fenced lease name for a shard grant.
func leaseID(shard, gen int) string { return fmt.Sprintf("s%d.g%d", shard, gen) }

// parseLease resolves a lease ID to its shard, validating the format
// strictly (Sscanf alone would accept trailing garbage).
func (c *Coordinator) parseLease(lease string) (*shard, int, error) {
	if !leasePattern.MatchString(lease) {
		return nil, 0, ErrUnknownLease
	}
	var id, gen int
	if n, err := fmt.Sscanf(lease, "s%d.g%d", &id, &gen); n != 2 || err != nil {
		return nil, 0, ErrUnknownLease
	}
	if id < 0 || id >= len(c.shards) || gen < 1 {
		return nil, 0, ErrUnknownLease
	}
	return c.shards[id], gen, nil
}

// reclaim sweeps expired leases back onto the pending queue. Callers hold mu.
func (c *Coordinator) reclaim() {
	now := c.now()
	for _, s := range c.shards {
		if s.state == stateLeased && s.expiry.Before(now) {
			c.events.emit(Event{Type: EventLeaseExpire, Worker: s.worker, Shard: s.id, Point: -1, Lease: leaseID(s.id, s.gen)})
			s.state = statePending
			s.worker = ""
			c.pending = append(c.pending, s.id)
			c.events.emit(Event{Type: EventLeaseReclaim, Shard: s.id, Point: -1})
		}
	}
}

// Lease grants the next pending shard to worker, returning nil when no
// shard is currently available — either every shard is done (check Done) or
// all remaining shards are leased out and the caller should poll again
// after a while. Expired leases are reclaimed first, so a worker polling
// Lease is also what drives recovery from dead workers.
func (c *Coordinator) Lease(worker string) *WorkUnit {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaim()
	if len(c.pending) == 0 {
		return nil
	}
	s := c.shards[c.pending[0]]
	c.pending = c.pending[1:]
	s.state = stateLeased
	s.gen++
	s.worker = worker
	s.expiry = c.now().Add(c.ttl)
	u := &WorkUnit{
		Shard:     s.id,
		Start:     s.start,
		End:       s.end,
		Lease:     leaseID(s.id, s.gen),
		TTLMillis: c.ttl.Milliseconds(),
		Total:     c.total,
	}
	c.events.emit(Event{Type: EventLeaseGrant, Worker: worker, Shard: s.id, Point: -1, Lease: u.Lease})
	return u
}

// Renew extends a lease's expiry by one TTL. It fails with ErrLeaseLost
// when the lease expired and was reclaimed (renewals must keep arriving
// faster than the TTL), and with ErrUnknownLease for garbage.
func (c *Coordinator) Renew(lease string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaim()
	s, gen, err := c.parseLease(lease)
	if err != nil {
		return err
	}
	if s.state != stateLeased || s.gen != gen {
		c.events.emit(Event{Type: EventLeaseReject, Shard: s.id, Point: -1, Lease: lease})
		return ErrLeaseLost
	}
	s.expiry = c.now().Add(c.ttl)
	c.events.emit(Event{Type: EventLeaseRenew, Worker: s.worker, Shard: s.id, Point: -1, Lease: lease})
	return nil
}

// Complete marks a shard done. A stale lease — the shard was reclaimed, and
// possibly re-granted to another worker — is rejected with ErrLeaseLost:
// exactly one holder can complete each grant, which is what the double-claim
// tests pin down. Completing an already-done shard is also a stale claim.
func (c *Coordinator) Complete(lease string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaim()
	s, gen, err := c.parseLease(lease)
	if err != nil {
		return err
	}
	if s.state != stateLeased || s.gen != gen {
		c.events.emit(Event{Type: EventLeaseReject, Shard: s.id, Point: -1, Lease: lease})
		return ErrLeaseLost
	}
	s.state = stateDone
	c.events.emit(Event{Type: EventLeaseComplete, Worker: s.worker, Shard: s.id, Point: -1, Lease: lease})
	s.worker = ""
	return nil
}

// Done reports whether every shard has completed.
func (c *Coordinator) Done() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range c.shards {
		if s.state != stateDone {
			return false
		}
	}
	return true
}

// Snapshot returns current coordination progress (reclaiming expired leases
// first, so a snapshot never reports a dead worker as active forever).
func (c *Coordinator) Snapshot() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.reclaim()
	st := Status{Shards: len(c.shards), Points: c.total}
	for _, s := range c.shards {
		switch s.state {
		case statePending:
			st.Pending++
		case stateLeased:
			st.Leased++
		case stateDone:
			st.Done++
		}
	}
	st.AllDone = st.Done == st.Shards
	return st
}
