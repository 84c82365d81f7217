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

// replay runs one (policy, load) cell: the arrival stream through the
// scheduler in virtual time. The loop is strictly single-threaded and
// event-driven — the next event is always the earlier of the next arrival
// and the earliest group completion — so the outcome is a pure function of
// (requests, profiles, policy), independent of host parallelism and wall
// clock. It reads p and arr without writing either, so cells sharing them
// may run concurrently; the only error is ctx's.
func (p *prepared) replay(ctx context.Context, policy Policy, arr *arrivals) (*Result, error) {
	opts, reqs := p.opts, arr.reqs
	records := make([]Record, len(reqs))
	for i := range reqs {
		records[i].Request = reqs[i]
	}

	// An SLO-aware policy's missing class targets come from the tenants'
	// resolved (possibly auto-derived) targets, so "slo" means the same
	// thing whether targets were given explicitly or derived. The filled-in
	// targets live in a per-run copy: the caller's policy is not touched.
	if slo, ok := policy.(*sloAware); ok {
		policy = slo.withTenantTargets(arr.tenants)
	}

	busyUntil := make([]float64, opts.Groups) // per rank group: free again at
	var pending []*Request                    // arrival-ordered queue of admitted requests
	batch := make([]int, 0, opts.MaxBatch)    // queue positions of one launch, ascending
	next := 0                                 // next arrival index into reqs
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
			// Extend the picked request into a batch: queued requests of
			// the same (tenant, benchmark) ride the same launch, in queue
			// order, up to MaxBatch — one input staging amortized over all.
			batch = batch[:0]
			for i := 0; i < len(pending) && len(batch) < opts.MaxBatch-1; i++ {
				if r := pending[i]; i != pick && r.Tenant == lead.Tenant && r.Benchmark == lead.Benchmark {
					batch = append(batch, i)
				}
			}
			at, _ := slices.BinarySearch(batch, pick)
			batch = slices.Insert(batch, at, pick) // within capacity: no allocation

			prof := p.profiles[lead.Benchmark]
			k := len(batch)
			svc := prof.service(k)
			finish := now + svc
			euj := prof.energyPerReq(k)
			for _, i := range batch {
				rec := &records[pending[i].ID]
				rec.Start = now
				rec.Finish = finish
				rec.Batch = k
				rec.EnergyUJ = euj
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

			busyUntil[gi] = finish
			if finish > makespan {
				makespan = finish
			}
			policy.Served(lead.Tenant, svc)
		}
	}

	for events := 1; next < len(reqs) || len(pending) > 0 || anyBusy(busyUntil, now); events++ {
		if events%ctxCheckEvents == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
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
				records[next].Dropped = true
			} else {
				pending = append(pending, &reqs[next])
			}
			next++
		}
		dispatch()
	}

	res := &Result{
		PolicyName: policy.Name(),
		Groups:     opts.Groups,
		GroupDPUs:  opts.GroupDPUs,
		Load:       arr.load,
		Scale:      opts.Scale,
		Records:    records,
		Makespan:   makespan,
	}
	res.Tenants, res.Overall = computeMetrics(arr.tenants, arr.owner, records, makespan)
	return res, nil
}

func anyBusy(busyUntil []float64, now float64) bool {
	for _, t := range busyUntil {
		if t > now {
			return true
		}
	}
	return false
}
