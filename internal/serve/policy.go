package serve

import (
	"fmt"
	"sort"
	"strings"
)

// Policy decides which pending request a freed rank group serves next.
//
// The contract is deliberately small and deterministic: Pick sees the
// pending queue in arrival order and virtual-time now, and returns the
// index of the request to serve (the scheduler then extends that request
// into a batch of queued same-(tenant, benchmark) requests). Served is
// the feedback edge — the scheduler reports every batch's tenant and
// modeled service time so stateful policies (weighted-fair) can account
// usage. Implementations must be pure functions of their inputs and
// prior Served calls: no wall clock, no randomness — the determinism
// invariant of the whole serving path rests on the policy honoring it.
type Policy interface {
	// Name identifies the policy in results, artifacts and the
	// pathfinding axis vocabulary.
	Name() string
	// Pick returns the index into pending of the request to serve next.
	// pending is non-empty and arrival-ordered; now is the current
	// virtual time in seconds. Ties must break deterministically
	// (conventionally: lowest index).
	Pick(pending []*Request, now float64) int
	// Served reports a dispatched batch: the issuing tenant and the
	// batch's modeled service seconds.
	Served(tenant string, seconds float64)
}

// FIFO returns the first-in-first-out policy: requests are served
// strictly in arrival order, tenants share nothing but the queue.
func FIFO() Policy { return fifo{} }

type fifo struct{}

func (fifo) Name() string                 { return "fifo" }
func (fifo) Pick([]*Request, float64) int { return 0 }
func (fifo) Served(string, float64)       {}

// WeightedFair returns a weighted-fair policy: each tenant accrues
// served time, and the pending request whose tenant has the least
// served-time-per-weight goes next (ties: earliest arrival). weights
// maps tenant name to share; missing or non-positive entries count as 1.
func WeightedFair(weights map[string]float64) Policy {
	w := make(map[string]float64, len(weights))
	for k, v := range weights {
		if v > 0 {
			w[k] = v
		}
	}
	return &weightedFair{weights: w}
}

type weightedFair struct {
	weights map[string]float64
	// tenants holds every tenant seen so far, in the order first seen, with
	// its share looked up once and its served seconds.
	tenants []wfqTenant
}

type wfqTenant struct {
	name          string
	share, served float64
}

func (*weightedFair) Name() string { return "wfq" }

// tenant returns name's entry, adding it the first time name is seen. A
// workload has few tenants, so comparing names beats hashing them; equal
// names in separate memory find the same entry.
func (p *weightedFair) tenant(name string) *wfqTenant {
	for i := range p.tenants {
		if p.tenants[i].name == name {
			return &p.tenants[i]
		}
	}
	share, ok := p.weights[name]
	if !ok {
		share = 1
	}
	p.tenants = append(p.tenants, wfqTenant{name: name, share: share})
	return &p.tenants[len(p.tenants)-1]
}

// usage is a tenant's served time per unit of share.
func (p *weightedFair) usage(name string) float64 {
	t := p.tenant(name)
	return t.served / t.share
}

func (p *weightedFair) Pick(pending []*Request, _ float64) int {
	best := 0
	bestV := p.usage(pending[0].Tenant)
	for i := 1; i < len(pending); i++ {
		if v := p.usage(pending[i].Tenant); v < bestV {
			best, bestV = i, v
		}
	}
	return best
}

func (p *weightedFair) Served(tenant string, seconds float64) {
	p.tenant(tenant).served += seconds
}

// SLOAware returns an earliest-deadline-first policy: the pending request
// with the tightest deadline goes next (ties: lowest index, i.e. earliest
// arrival). A request's deadline is its arrival plus its class's SLO target
// (see Tenant.SLOTarget), fixed when the run generates its arrivals, so the
// policy keeps no state and a wrapper that forwards Pick schedules the same.
func SLOAware() Policy { return sloAware{} }

type sloAware struct{}

func (sloAware) Name() string { return "slo" }

func (sloAware) Pick(pending []*Request, _ float64) int {
	best := 0
	for i := 1; i < len(pending); i++ {
		if pending[i].deadline < pending[best].deadline {
			best = i
		}
	}
	return best
}

func (sloAware) Served(string, float64) {}

// PolicyNames lists the built-in policy vocabulary NewPolicy accepts,
// sorted — the pathfinding axis and CLI flags validate against it.
func PolicyNames() []string {
	names := []string{"fifo", "wfq", "slo"}
	sort.Strings(names)
	return names
}

// NewPolicy constructs a built-in policy by name for a tenant set:
// "fifo", "wfq" (weighted-fair over the tenants' weights) or "slo"
// (earliest-deadline-first). Only wfq reads the tenants, for its weights,
// so the slice may be nil for fifo and slo: slo orders by deadlines a run
// sets from its own Options.Tenants, the slice every caller passes here.
func NewPolicy(name string, tenants []Tenant) (Policy, error) {
	switch name {
	case "fifo", "":
		return FIFO(), nil
	case "wfq":
		w := make(map[string]float64, len(tenants))
		for _, t := range tenants {
			if t.Weight > 0 {
				w[t.Name] = t.Weight
			}
		}
		return WeightedFair(w), nil
	case "slo":
		return SLOAware(), nil
	default:
		return nil, fmt.Errorf("serve: unknown policy %q (want %s)", name, strings.Join(PolicyNames(), ", "))
	}
}
