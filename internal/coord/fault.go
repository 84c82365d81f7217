package coord

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"upim/internal/engine"
	"upim/internal/explore"
	"upim/internal/prim"
)

// FaultPlan is the deterministic fault-injection harness: every fault fires
// at an exact, countable moment (after the Kth point, the Nth renewal, the
// Mth store write), so a test can stage worker deaths, stalled heartbeats
// and torn store writes and still assert exact outcomes. The zero value
// injects nothing.
type FaultPlan struct {
	// KillAfterPoints kills worker id (its first incarnation) immediately
	// after it has processed that many points — mid-shard when the count
	// lands inside a leased range. A killed worker stops renewing and never
	// completes its lease; the supervisor respawns it as a fresh incarnation
	// ("w2.r1") with the fault spent.
	KillAfterPoints map[int]int
	// DropRenewals silently drops worker id's first N lease renewals —
	// enough drops and the lease expires under a live worker (the stalled-
	// worker case), which the worker notices on its next renewal attempt.
	DropRenewals map[int]int
	// DelayRenewals delays each of worker id's renewals by the given
	// duration before sending.
	DelayRenewals map[int]time.Duration
	// CorruptPuts corrupts the Nth successful exact-result store write
	// (1-based, counted across all workers): the entry is written and then
	// overwritten with undecodable bytes, so the final merge must detect the
	// damage and re-simulate. Requires a backend implementing
	// explore.Corrupter (the local store does).
	CorruptPuts []int
}

// errWorkerKilled is the sentinel a fault-killed worker dies with; the
// supervisor respawns on it and on nothing else.
var errWorkerKilled = errors.New("coord: worker killed by fault plan")

// faultRun is one coordinated run's mutable fault state.
type faultRun struct {
	plan FaultPlan

	mu        sync.Mutex
	processed map[int]int // worker id -> points processed (first incarnation)
	killed    map[int]bool
	dropped   map[int]int // worker id -> renewals dropped so far
	puts      int         // successful exact puts, across all workers
	corrupt   map[int]bool
}

func newFaultRun(plan *FaultPlan) *faultRun {
	f := &faultRun{
		processed: map[int]int{},
		killed:    map[int]bool{},
		dropped:   map[int]int{},
		corrupt:   map[int]bool{},
	}
	if plan != nil {
		f.plan = *plan
		for _, n := range f.plan.CorruptPuts {
			f.corrupt[n] = true
		}
	}
	return f
}

// pointProcessed counts one processed point and reports whether the worker
// must die now. Only a worker's first incarnation is ever killed.
func (f *faultRun) pointProcessed(worker, incarnation int) (die bool) {
	if f == nil {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if incarnation > 0 || f.killed[worker] {
		return false
	}
	f.processed[worker]++
	k, ok := f.plan.KillAfterPoints[worker]
	if ok && f.processed[worker] >= k {
		f.killed[worker] = true
		return true
	}
	return false
}

// renewalFault reports whether this renewal should be dropped, and how long
// to delay it first.
func (f *faultRun) renewalFault(worker int) (drop bool, delay time.Duration) {
	if f == nil {
		return false, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	delay = f.plan.DelayRenewals[worker]
	if f.dropped[worker] < f.plan.DropRenewals[worker] {
		f.dropped[worker]++
		return true, delay
	}
	return false, delay
}

// corruptPut counts one successful exact put and reports whether to corrupt
// it.
func (f *faultRun) corruptPut() (seq int, corrupt bool) {
	if f == nil {
		return 0, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	return f.puts, f.corrupt[f.puts]
}

// faultBackend wraps the run's store backend so CorruptPuts can tear exact
// writes after they land (estimate writes pass through the embedded backend
// untouched: a torn exact entry is the expensive failure). Only worker writes
// route through it — the final merge uses the clean backend, so repairs stick.
type faultBackend struct {
	explore.Backend
	faults *faultRun
	log    *Log
	// worker names the wrapper's owner for put_corrupt events: workers are
	// concurrent, so each gets its own wrapper (newWorkerBackend) while the
	// corruption sequence counter stays shared run-wide in faults.
	worker string
}

// newWorkerBackend wraps the backend for one worker; corruption counting is
// shared run-wide through faults.
func newWorkerBackend(b explore.Backend, faults *faultRun, log *Log, worker string) explore.Backend {
	if faults == nil || len(faults.corrupt) == 0 {
		return b
	}
	return &faultBackend{Backend: b, faults: faults, log: log, worker: worker}
}

func (fb *faultBackend) Put(key string, p engine.Point, res *prim.Result) error {
	if err := fb.Backend.Put(key, p, res); err != nil {
		return err
	}
	if _, corrupt := fb.faults.corruptPut(); corrupt {
		c, ok := fb.Backend.(explore.Corrupter)
		if !ok {
			return fmt.Errorf("coord: fault plan corrupts store writes but backend %T cannot corrupt entries", fb.Backend)
		}
		if err := c.CorruptEntry(key); err != nil {
			return err
		}
		fb.log.point(EventPutCorrupt, fb.worker, -1, -1, key, nil)
	}
	return nil
}
