package serve

import (
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
	// reqs is the stream in ID (arrival) order; owner[id] indexes tenants
	// and kernel[id] the prepared kernels.
	reqs          []Request
	owner, kernel []int32
}

// arrivals builds the stream for one offered load.
func (p *prepared) arrivals(load float64) *arrivals {
	a := &arrivals{load: load, tenants: p.tenantsAt(load)}
	a.poisson(p.opts.Seed)
	return a
}

// stream is one tenant's Poisson generator during the merge: its RNG, the
// requests it has yet to merge, and the next of them, drawn.
type stream struct {
	rng  *rand.Rand
	left int
	at   float64
	mix  int
}

// draw draws the tenant's next arrival: an exponential gap at its rate,
// then an index into its mix.
func (s *stream) draw(t *tenant) {
	s.at += s.rng.ExpFloat64() / t.Rate
	s.mix = s.rng.Intn(len(t.Mix))
}

// poisson generates every tenant's open-loop Poisson arrival stream and
// merges them into one globally-ordered request sequence. Each tenant
// draws from its own seeded RNG, so streams are independent and the merged
// order is a pure function of (seed, tenants). The merge is lazy: a tenant
// draws its next arrival only once the one before has been merged, and
// ties go to the lowest tenant index.
func (a *arrivals) poisson(seed int64) {
	total := 0
	streams := make([]stream, len(a.tenants))
	for ti := range a.tenants {
		t, s := &a.tenants[ti], &streams[ti]
		total += t.Requests
		s.rng, s.left = rand.New(rand.NewSource(tenantSeed(seed, t.Name))), t.Requests
		if s.left > 0 {
			s.draw(t)
		}
	}
	a.reqs = make([]Request, total)
	a.owner = make([]int32, total)
	a.kernel = make([]int32, total)
	for id := range a.reqs {
		first := -1
		for ti := range streams {
			if s := &streams[ti]; s.left > 0 && (first < 0 || s.at < streams[first].at) {
				first = ti
			}
		}
		t, s := &a.tenants[first], &streams[first]
		a.reqs[id] = Request{ID: id, Tenant: t.Name, Class: t.SLOClass, Benchmark: t.Mix[s.mix],
			Arrival: s.at, deadline: s.at + t.classTarget}
		a.owner[id], a.kernel[id] = int32(first), t.kernels[s.mix]
		if s.left--; s.left > 0 {
			s.draw(t)
		}
	}
}
