package coord

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"upim/internal/explore"
)

// LeaseClient is a worker's view of a coordinator: Client speaks it across
// HTTP. Lease returns (nil, false, nil) when no shard is available right now
// and the worker should poll again; (nil, true, nil) once every shard has
// completed.
type LeaseClient interface {
	Lease(worker string) (u *WorkUnit, done bool, err error)
	Renew(lease string) error
	Complete(lease string) error
}

// worker drains shards from a coordinator: lease, heartbeat, process the
// point range through the store, complete, repeat. One worker processes one
// point at a time — parallelism comes from running N workers.
type worker struct {
	name string
	api  LeaseClient
	// ex resolves points through the store, one at a time on the worker's
	// goroutine.
	ex   *explore.Explorer
	pts  []explore.Point
	log  *Log
	poll time.Duration
}

// run is the worker main loop. It returns nil when the coordinator reports
// all shards done, ctx.Err() once the context is cancelled, or the first
// unrecoverable error.
func (w *worker) run(ctx context.Context) error {
	w.log.emit(Event{Type: EventWorkerStart, Worker: w.name, Shard: -1, Point: -1})
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		u, done, err := w.api.Lease(w.name)
		if err != nil {
			return fmt.Errorf("coord: %s: leasing: %w", w.name, err)
		}
		if done {
			w.log.emit(Event{Type: EventWorkerExit, Worker: w.name, Shard: -1, Point: -1})
			return nil
		}
		if u == nil {
			if !sleepCtx(ctx, w.poll) {
				return ctx.Err()
			}
			continue
		}
		if err := u.Validate(); err != nil {
			return fmt.Errorf("coord: %s: %w", w.name, err)
		}
		if u.Total != len(w.pts) {
			return fmt.Errorf("coord: %s: coordinator counts %d points but the local enumeration has %d — worker and coordinator disagree on the space",
				w.name, u.Total, len(w.pts))
		}
		if err := w.shard(ctx, u); err != nil {
			return err
		}
	}
}

// shard processes one leased work unit under a heartbeat. A cancelled
// worker stops where it is, like a crashed process: no more points, no more
// renewals, no completion — the lease expires and the shard re-queues.
func (w *worker) shard(ctx context.Context, u *WorkUnit) error {
	hbCtx, stopHeartbeat := context.WithCancel(ctx)
	defer stopHeartbeat()
	hb := max(time.Duration(u.TTLMillis)*time.Millisecond/3, time.Millisecond)

	// The heartbeat renews the lease until the shard is done or the lease is
	// lost. Losing the lease closes lost, and the point loop abandons the
	// shard: its remaining points belong to whoever re-leases it, and
	// continuing would only duplicate work (the store would dedupe the
	// results, but the cycles are gone).
	lost := make(chan struct{})
	var hbWG sync.WaitGroup
	hbWG.Add(1)
	go func() {
		defer hbWG.Done()
		t := time.NewTicker(hb)
		defer t.Stop()
		for {
			select {
			case <-hbCtx.Done():
				return
			case <-t.C:
			}
			if err := w.api.Renew(u.Lease); err != nil {
				w.log.emit(Event{Type: EventLeaseLost, Worker: w.name, Shard: u.Shard, Lease: u.Lease, Point: -1, Err: err.Error()})
				close(lost)
				return
			}
		}
	}()

	abandoned := false
	for i := u.Start; i < u.End && !abandoned && ctx.Err() == nil; i++ {
		select {
		case <-lost:
			abandoned = true
		default:
			w.point(ctx, u, i)
		}
	}
	stopHeartbeat()
	hbWG.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	if abandoned {
		return nil // the shard re-queues via expiry; this worker moves on
	}
	if err := w.api.Complete(u.Lease); err != nil {
		if errors.Is(err, ErrLeaseLost) || errors.Is(err, ErrUnknownLease) {
			// Zombie completion: the lease expired under us right at the end.
			// Our results are already in the store; the reclaiming worker
			// will see them as cached points and complete the shard.
			w.log.emit(Event{Type: EventLeaseLost, Worker: w.name, Shard: u.Shard, Lease: u.Lease, Point: -1, Err: err.Error()})
			return nil
		}
		return fmt.Errorf("coord: %s: completing shard %d: %w", w.name, u.Shard, err)
	}
	return nil
}

// point resolves one point of a leased shard through the store (lookup →
// simulate → commit, explore.Explorer.Resolve) and logs what happened.
// Failures are recorded, not fatal — the shard completes and the resumed
// exploration that merges the run surfaces per-point errors, matching the
// Explore contract.
func (w *worker) point(ctx context.Context, u *WorkUnit, i int) {
	o := w.ex.Resolve(ctx, w.pts[i], i)
	typ := EventPointSimulated
	switch {
	case o.Err != nil:
		typ = EventPointFailed
	case o.Cached:
		typ = EventPointCached
	}
	w.log.point(typ, w.name, u.Shard, i, o.Key, o.Err)
}

// sleepCtx sleeps d or until ctx cancels; false means cancelled.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
