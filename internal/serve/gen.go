package serve

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	// reqs is the stream in ID (arrival) order; owner[id] indexes tenants
	// and kernel[id] the prepared kernels.
	reqs          []Request
	owner, kernel []int32
}

// arrivals builds the stream for one offered load: the explicit trace when
// there is one, seeded Poisson generation otherwise.
func (p *prepared) arrivals(load float64) (*arrivals, error) {
	a := &arrivals{load: load, tenants: p.tenantsAt(load)}
	if len(p.opts.Trace) > 0 {
		if err := a.trace(p.opts.Trace); err != nil {
			return nil, err
		}
		return a, nil
	}
	a.poisson(p.opts.Seed)
	return a, nil
}

// draw is one generated arrival before the merge: its time and its index
// into the tenant's mix.
type draw struct {
	at  float64
	mix int32
}

// poisson generates every tenant's open-loop Poisson arrival stream and
// merges them into one globally-ordered request sequence. Each tenant
// draws from its own seeded RNG, so streams are independent and the merged
// order is a pure function of (seed, tenants).
func (a *arrivals) poisson(seed int64) {
	total := 0
	for _, t := range a.tenants {
		total += t.Requests
	}
	// The per-tenant streams sit back to back in one buffer.
	buf := make([]draw, total)
	streams := make([][]draw, len(a.tenants))
	for ti, t := range a.tenants {
		rng := rand.New(rand.NewSource(tenantSeed(seed, t.Name)))
		streams[ti], buf = buf[:t.Requests], buf[t.Requests:]
		now := 0.0
		for i := range streams[ti] {
			// Exponential inter-arrival gap at the tenant's rate.
			now += rng.ExpFloat64() / t.Rate
			streams[ti][i] = draw{at: now, mix: int32(rng.Intn(len(t.Mix)))}
		}
	}
	a.owner = mergeStreams(streams)
	a.reqs = make([]Request, total)
	a.kernel = make([]int32, total)
	for id, ti := range a.owner {
		t, d := &a.tenants[ti], streams[ti][0]
		streams[ti] = streams[ti][1:]
		a.reqs[id] = Request{ID: id, Tenant: t.Name, Class: t.SLOClass, Benchmark: t.Mix[d.mix], Arrival: d.at}
		a.kernel[id] = t.kernels[d.mix]
	}
}

// mergeStreams merges per-tenant streams, each already time-ordered, by
// arrival time with ties broken by tenant order — what a stable sort of
// their concatenation yields, in one linear pass. owner[id] is the tenant
// of the id-th arrival, which is the next unmerged draw of its stream.
func mergeStreams(streams [][]draw) (owner []int32) {
	total := 0
	for _, s := range streams {
		total += len(s)
	}
	owner = make([]int32, total)
	heads := make([]int, len(streams))
	for id := range owner {
		first, at := -1, 0.0
		for ti, s := range streams {
			if h := heads[ti]; h < len(s) && (first < 0 || s[h].at < at) {
				first, at = ti, s[h].at
			}
		}
		owner[id] = int32(first)
		heads[first]++
	}
	return owner
}

// trace validates an explicit trace and takes it as the stream with IDs
// normalized. The trace replaces generation entirely: arrivals, tenants and
// benchmarks come verbatim from the caller.
func (a *arrivals) trace(trace []Request) error {
	byName := make(map[string]int, len(a.tenants))
	for i := range a.tenants {
		byName[a.tenants[i].Name] = i
	}
	a.reqs = make([]Request, len(trace))
	a.owner = make([]int32, len(trace))
	a.kernel = make([]int32, len(trace))
	last := math.Inf(-1)
	for i, r := range trace {
		ti, ok := byName[r.Tenant]
		if !ok {
			return fmt.Errorf("serve: trace entry %d: unknown tenant %q", i, r.Tenant)
		}
		t := &a.tenants[ti]
		a.owner[i] = int32(ti)
		j := slices.Index(t.Mix, r.Benchmark)
		if j < 0 {
			return fmt.Errorf("serve: trace entry %d: benchmark %q not in tenant %q's mix", i, r.Benchmark, r.Tenant)
		}
		a.kernel[i] = t.kernels[j]
		if r.Arrival < 0 || !finite(r.Arrival) {
			return fmt.Errorf("serve: trace entry %d: invalid arrival %v", i, r.Arrival)
		}
		if r.Arrival < last {
			return fmt.Errorf("serve: trace entry %d: arrival %v precedes entry %d (trace must be time-ordered)", i, r.Arrival, i-1)
		}
		last = r.Arrival
		a.reqs[i] = Request{
			ID:        i,
			Tenant:    r.Tenant,
			Class:     t.SLOClass,
			Benchmark: r.Benchmark,
			Arrival:   r.Arrival,
		}
		if r.Class != "" {
			a.reqs[i].Class = r.Class
		}
	}
	return nil
}
