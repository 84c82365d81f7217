package serve

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refWeightedFair is the map-based weighted-fair policy the built-in one
// replaced, kept as its reference: two map lookups per pending request in
// Pick, one map update per Served.
type refWeightedFair struct {
	weights map[string]float64
	served  map[string]float64
}

func newRefWeightedFair(weights map[string]float64) *refWeightedFair {
	w := make(map[string]float64, len(weights))
	for k, v := range weights {
		if v > 0 {
			w[k] = v
		}
	}
	return &refWeightedFair{weights: w, served: map[string]float64{}}
}

func (p *refWeightedFair) share(tenant string) float64 {
	if w, ok := p.weights[tenant]; ok {
		return w
	}
	return 1
}

func (p *refWeightedFair) Pick(pending []*Request, _ float64) int {
	best := 0
	bestV := p.served[pending[0].Tenant] / p.share(pending[0].Tenant)
	for i := 1; i < len(pending); i++ {
		v := p.served[pending[i].Tenant] / p.share(pending[i].Tenant)
		if v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

func (p *refWeightedFair) Served(tenant string, seconds float64) {
	p.served[tenant] += seconds
}

// refSLOAware is the map-based earliest-deadline-first policy the built-in
// one replaced, kept as its reference: one map lookup per pending request,
// each deadline its arrival plus its class's target.
type refSLOAware struct {
	targets map[string]float64
}

func newRefSLOAware(targets map[string]float64) *refSLOAware {
	t := make(map[string]float64, len(targets))
	for k, v := range targets {
		if v > 0 {
			t[k] = v
		}
	}
	return &refSLOAware{targets: t}
}

func (p *refSLOAware) Pick(pending []*Request, _ float64) int {
	best := 0
	bestD := pending[0].Arrival + p.targets[pending[0].Class]
	for i := 1; i < len(pending); i++ {
		d := pending[i].Arrival + p.targets[pending[i].Class]
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// fuzzBytes hands out an input's bytes one at a time, zeros once it is
// exhausted.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// FuzzPolicyMatchesReference holds the built-in wfq and slo policies to
// their map-based references over one input's sequence of Pick and Served
// calls. The input sets 1-40 tenants, each with a weight and its own class
// target that may be missing, zero, negative or positive, plus one class
// no target names; then each call: a Served of some tenant for one of a
// few service times, or a Pick over up to 64 pending requests whose
// arrivals sit on a coarse grid, so exact ties in served time per weight
// and in deadline are common. Each pending request's deadline is stamped
// from the reference's targets, as the generator stamps it from the run's.
// A request's tenant or class string may be a copy in separate memory, so
// a policy cannot tell tenants apart by the string's address alone. Every
// Pick must return the reference's index, and after the sequence each
// tenant's served time must match the reference's bit for bit.
func FuzzPolicyMatchesReference(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 1, 1, 3, 3, 1, 5, 0, 0, 0, 0, 0, 1, 4, 2, 2, 0, 1, 1, 1})
	f.Add([]byte{39, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3})
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 4; i++ {
		seed := make([]byte, 64+rng.Intn(512))
		rng.Read(seed)
		f.Add(seed)
	}
	weights := []float64{0, -1, 0.5, 1, 2, 3} // index 6 and up: no entry
	targets := []float64{0, -1e-3, 1e-3, 2e-3, 2.5e-3}
	seconds := []float64{0, 1e-3, 2.5e-3, 1e-3 / 3, 1}
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)
		n := 1 + in.next()%40
		names := make([]string, n)
		classes := make([]string, n+1) // the last class has no target
		w, tg := map[string]float64{}, map[string]float64{}
		for i := range names {
			names[i], classes[i] = "t"+strconv.Itoa(i), "c"+strconv.Itoa(i)
			if k := in.next() % 7; k < len(weights) {
				w[names[i]] = weights[k]
			}
			if k := in.next() % 6; k < len(targets) {
				tg[classes[i]] = targets[k]
			}
		}
		classes[n] = "c" + strconv.Itoa(n)
		// pickName returns one of pool's strings, as it is or as a copy.
		pickName := func(pool []string) string {
			s, k := pool[in.next()%len(pool)], in.next()
			if k%2 == 1 {
				return strings.Clone(s)
			}
			return s
		}

		wfq, refWFQ := WeightedFair(w), newRefWeightedFair(w)
		slo, refSLO := SLOAware(), newRefSLOAware(tg)
		for calls := 0; len(in) > 0; calls++ {
			if in.next()%3 == 0 {
				tenant, s := pickName(names), seconds[in.next()%len(seconds)]
				wfq.Served(tenant, s)
				refWFQ.Served(tenant, s)
				continue
			}
			pending := make([]*Request, 1+in.next()%64)
			now := 0.0
			for i := range pending {
				now += float64(in.next()%3) * 1e-3
				r := &Request{ID: i, Tenant: pickName(names), Class: pickName(classes), Arrival: now}
				r.deadline = r.Arrival + refSLO.targets[r.Class]
				pending[i] = r
			}
			if got, want := wfq.Pick(pending, now), refWFQ.Pick(pending, now); got != want {
				t.Fatalf("call %d: wfq picks %d of %d, reference %d", calls, got, len(pending), want)
			}
			if got, want := slo.Pick(pending, now), refSLO.Pick(pending, now); got != want {
				t.Fatalf("call %d: slo picks %d of %d, reference %d", calls, got, len(pending), want)
			}
		}
		got := servedTimes(wfq.(*weightedFair))
		for _, name := range names {
			if g, r := got[name], refWFQ.served[name]; math.Float64bits(g) != math.Float64bits(r) {
				t.Fatalf("tenant %s: served %v, reference %v", name, g, r)
			}
		}
	})
}

// servedTimes is a weighted-fair policy's accumulated served seconds by
// tenant; a tenant it has never seen is absent.
func servedTimes(p *weightedFair) map[string]float64 {
	served := map[string]float64{}
	for _, t := range p.tenants {
		served[t.name] = t.served
	}
	return served
}
