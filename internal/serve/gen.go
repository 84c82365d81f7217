package serve

import (
	"fmt"
	"math"
	"math/rand"
)

// tenantSeed derives a per-tenant RNG seed from the run seed and the
// tenant's name, so adding a tenant never perturbs another tenant's
// arrival stream (FNV-1a over the name, mixed into the run seed).
func tenantSeed(seed int64, name string) int64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return seed ^ int64(h&math.MaxInt64)
}

// arrivals is one offered load's request stream. It is generated once per
// load and shared, read-only, by every policy replayed at that load: the
// stream is a function of (seed, tenants, load) and never of the policy.
type arrivals struct {
	load float64
	// tenants are resolved at this load (derived rates depend on it).
	tenants []tenant
	// reqs is the stream in ID (arrival) order; owner[id] indexes tenants.
	reqs  []Request
	owner []int32
}

// arrivals builds the stream for one offered load: the explicit trace when
// there is one, seeded Poisson generation otherwise.
func (p *prepared) arrivals(load float64) (*arrivals, error) {
	a := &arrivals{load: load, tenants: p.tenantsAt(load)}
	if len(p.opts.Trace) > 0 {
		var err error
		if a.reqs, a.owner, err = traceRequests(p.opts.Trace, a.tenants); err != nil {
			return nil, err
		}
		return a, nil
	}
	a.reqs, a.owner = poissonRequests(p.opts.Seed, a.tenants)
	return a, nil
}

// poissonRequests generates every tenant's open-loop Poisson arrival
// stream and merges them into one globally-ordered request sequence.
// Each tenant draws from its own seeded RNG, so streams are independent
// and the merged order is a pure function of (seed, tenants).
func poissonRequests(seed int64, tenants []tenant) ([]Request, []int32) {
	total := 0
	for _, t := range tenants {
		total += t.Requests
	}
	// The per-tenant streams sit back to back in one buffer.
	buf := make([]Request, total)
	streams := make([][]Request, len(tenants))
	for ti, t := range tenants {
		rng := rand.New(rand.NewSource(tenantSeed(seed, t.Name)))
		streams[ti], buf = buf[:t.Requests], buf[t.Requests:]
		now := 0.0
		for i := range streams[ti] {
			// Exponential inter-arrival gap at the tenant's rate.
			now += rng.ExpFloat64() / t.Rate
			streams[ti][i] = Request{
				Tenant:    t.Name,
				Class:     t.SLOClass,
				Benchmark: t.Mix[rng.Intn(len(t.Mix))],
				Arrival:   now,
			}
		}
	}
	return mergeStreams(streams)
}

// mergeStreams merges per-tenant streams, each already time-ordered, by
// arrival time with ties broken by tenant order — what a stable sort of
// their concatenation yields, in one linear pass. It consumes streams and
// assigns IDs in merged order.
func mergeStreams(streams [][]Request) (reqs []Request, owner []int32) {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	reqs = make([]Request, total)
	owner = make([]int32, total)
	for id := range reqs {
		first := -1
		for ti, s := range streams {
			if len(s) > 0 && (first < 0 || s[0].Arrival < streams[first][0].Arrival) {
				first = ti
			}
		}
		reqs[id] = streams[first][0]
		reqs[id].ID = id
		owner[id] = int32(first)
		streams[first] = streams[first][1:]
	}
	return reqs, owner
}

// traceRequests validates an explicit trace and normalizes its IDs. The
// trace replaces generation entirely: arrivals, tenants and benchmarks
// come verbatim from the caller.
func traceRequests(trace []Request, tenants []tenant) ([]Request, []int32, error) {
	byName := make(map[string]int, len(tenants))
	for i := range tenants {
		byName[tenants[i].Name] = i
	}
	reqs := make([]Request, len(trace))
	owner := make([]int32, len(trace))
	last := math.Inf(-1)
	for i, r := range trace {
		ti, ok := byName[r.Tenant]
		if !ok {
			return nil, nil, fmt.Errorf("serve: trace entry %d: unknown tenant %q", i, r.Tenant)
		}
		t := &tenants[ti]
		owner[i] = int32(ti)
		inMix := false
		for _, b := range t.Mix {
			if b == r.Benchmark {
				inMix = true
				break
			}
		}
		if !inMix {
			return nil, nil, fmt.Errorf("serve: trace entry %d: benchmark %q not in tenant %q's mix", i, r.Benchmark, r.Tenant)
		}
		if r.Arrival < 0 || !finite(r.Arrival) {
			return nil, nil, fmt.Errorf("serve: trace entry %d: invalid arrival %v", i, r.Arrival)
		}
		if r.Arrival < last {
			return nil, nil, fmt.Errorf("serve: trace entry %d: arrival %v precedes entry %d (trace must be time-ordered)", i, r.Arrival, i-1)
		}
		last = r.Arrival
		reqs[i] = Request{
			ID:        i,
			Tenant:    r.Tenant,
			Class:     t.SLOClass,
			Benchmark: r.Benchmark,
			Arrival:   r.Arrival,
		}
		if r.Class != "" {
			reqs[i].Class = r.Class
		}
	}
	return reqs, owner, nil
}
