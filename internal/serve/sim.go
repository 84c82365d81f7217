package serve

import (
	"context"
	"math"
	"slices"
)

// ctxCheckEvents is how many events a replay handles between looks at its
// context: coarse enough to cost nothing, fine enough that a cancelled
// long replay stops within microseconds.
const ctxCheckEvents = 4096

// outcome is what the replay decides for one request: when its batch ran,
// how large the batch was and its share of the batch's energy, or that
// admission control dropped it. It holds no pointers, so a cell's outcomes
// cost the collector nothing; Serve joins them with the arrivals into
// Records, and the metrics read them directly.
type outcome struct {
	start, finish, energyUJ float64
	batch                   int32
	dropped                 bool
}

// scratch is what a cell writes on its way to its result: the replay's
// outcomes, pending queue, batch and group busy times, and the metrics'
// latency buffer and tallies. A load sweep's worker keeps one and reuses it
// for every cell it replays, so a warm cell allocates none of it. Nothing
// but capacity carries from one use to the next: each use overwrites what
// it reads.
type scratch struct {
	outs      []outcome
	pending   []*Request
	batch     []int
	busyUntil []float64
	lats      []float64
	at        []int
	per       []tally
}

// resize returns s with length n, reusing its array when it is large
// enough; the elements are left as they were.
func resize[T any](s []T, n int) []T { return slices.Grow(s[:0], n)[:n] }

// replay runs one (policy, load) cell: the arrival stream through the
// scheduler in virtual time. The loop is strictly single-threaded and
// event-driven — the next event is always the earlier of the next arrival
// and the earliest group completion — so the outcome is a pure function of
// (requests, profiles, policy), independent of host parallelism and wall
// clock. It reads p and arr without writing either, so cells sharing them
// may run concurrently, each in its own scratch; the only error is ctx's.
// It returns one outcome per request, in ID order, and the makespan; the
// outcomes live in s until its next use.
func (p *prepared) replay(ctx context.Context, policy Policy, arr *arrivals, s *scratch) ([]outcome, float64, error) {
	opts, reqs := p.opts, arr.reqs
	// Every request's outcome is written in full, dispatched or dropped, so
	// the reused buffer needs no clearing.
	outs := resize(s.outs, len(reqs))
	s.outs = outs

	// An SLO-aware policy's missing class targets come from the tenants'
	// resolved (possibly auto-derived) targets, so "slo" means the same
	// thing whether targets were given explicitly or derived. The filled-in
	// targets live in a per-run copy: the caller's policy is not touched.
	if slo, ok := policy.(*sloAware); ok {
		policy = slo.withTenantTargets(arr.tenants)
	}

	busyUntil := resize(s.busyUntil, opts.Groups) // per rank group: free again at
	clear(busyUntil)
	pending := s.pending[:0] // arrival-ordered queue of admitted requests
	// Queue positions of one launch, ascending. A launch holds at most
	// MaxBatch requests and at most the whole stream, so a larger MaxBatch
	// means the same as the stream's length.
	batch := slices.Grow(s.batch[:0], min(opts.MaxBatch, len(reqs)))
	defer func() { s.busyUntil, s.pending, s.batch = busyUntil, pending, batch }()
	next := 0 // next arrival index into reqs
	now := 0.0
	makespan := 0.0

	// dispatch fills every idle group from the pending queue at time now.
	dispatch := func() {
		for gi := range busyUntil {
			if len(pending) == 0 {
				return
			}
			if busyUntil[gi] > now {
				continue
			}
			pick := policy.Pick(pending, now)
			lead := pending[pick]
			owner, kernel := arr.owner[lead.ID], arr.kernel[lead.ID]
			// Extend the picked request into a batch: queued requests of
			// the same (tenant, benchmark) ride the same launch, in queue
			// order, up to MaxBatch — one input staging amortized over all.
			batch = batch[:0]
			for i := 0; i < len(pending) && len(batch) < opts.MaxBatch-1; i++ {
				if id := pending[i].ID; i != pick && arr.owner[id] == owner && arr.kernel[id] == kernel {
					batch = append(batch, i)
				}
			}
			at, _ := slices.BinarySearch(batch, pick)
			batch = slices.Insert(batch, at, pick) // within capacity: no allocation

			prof := &p.profiles[kernel]
			k := len(batch)
			svc := prof.service(k)
			o := outcome{start: now, finish: now + svc, energyUJ: prof.energyPerReq(k), batch: int32(k)}
			for _, i := range batch {
				outs[pending[i].ID] = o
			}
			// Remove the batch from the queue, preserving arrival order:
			// everything before its first member stays where it is.
			w := batch[0]
			for bi, i := range batch {
				end := len(pending)
				if bi+1 < k {
					end = batch[bi+1]
				}
				w += copy(pending[w:], pending[i+1:end])
			}
			pending = pending[:w]

			busyUntil[gi] = o.finish
			if o.finish > makespan {
				makespan = o.finish
			}
			policy.Served(lead.Tenant, svc)
		}
	}

	for events := 1; next < len(reqs) || len(pending) > 0 || anyBusy(busyUntil, now); events++ {
		if events%ctxCheckEvents == 0 && ctx.Err() != nil {
			return nil, 0, ctx.Err()
		}
		// Advance virtual time to the next event: the earlier of the next
		// arrival and the earliest in-flight completion (a group that frees
		// at t can serve a request arriving at t).
		tNext := math.Inf(1)
		if next < len(reqs) {
			tNext = reqs[next].Arrival
		}
		for _, t := range busyUntil {
			if t > now && t < tNext {
				tNext = t
			}
		}
		now = tNext

		// Admit every arrival at this instant (tie-ordered by ID).
		for next < len(reqs) && reqs[next].Arrival <= now {
			if opts.MaxQueue > 0 && len(pending) >= opts.MaxQueue {
				outs[next] = outcome{dropped: true}
			} else {
				pending = append(pending, &reqs[next])
			}
			next++
		}
		dispatch()
	}

	return outs, makespan, nil
}

func anyBusy(busyUntil []float64, now float64) bool {
	for _, t := range busyUntil {
		if t > now {
			return true
		}
	}
	return false
}
