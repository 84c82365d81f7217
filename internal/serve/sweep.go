package serve

import (
	"context"
	"fmt"
	"sync"

	"upim/internal/artifact"
	"upim/internal/engine"
)

// LoadSweep serves the same workload at every (policy, load) pair and
// renders the p50/p99-vs-offered-load artifact — the QoS curve the
// paper's serving argument turns on. Policies are named (fresh instances
// per cell via NewPolicy, so stateful policies never leak accounting
// across cells).
//
// The sweep prepares once and replays many: the kernels are profiled once,
// each load's arrival stream is generated once and shared by that load's
// policies, and the cells — pure functions of those read-only inputs — run
// on the engine's worker pool, Options.Parallelism wide. Rows are assembled
// in (policy, load) order, so the table never depends on the worker count.
// A row names the policy and the load its cell replayed: an empty name means
// fifo and a non-positive load the default.
func LoadSweep(ctx context.Context, opts Options, policies []string, loads []float64) (*artifact.Table, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := prepare(ctx, opts)
	if err != nil {
		return nil, err
	}
	return p.sweep(ctx, policies, loads)
}

// sweep replays every (policy, load) cell of the prepared workload.
func (p *prepared) sweep(ctx context.Context, policies []string, loads []float64) (*artifact.Table, error) {
	type cell struct {
		load   float64
		policy Policy
		gen    func() *arrivals
		// rows are the cell's per-tenant metrics, all the table keeps of its
		// replay.
		rows []TenantMetrics
		err  error
	}
	// One lazily generated stream per load, whichever cell needs it first.
	gens := make([]func() *arrivals, len(loads))
	replayed := make([]float64, len(loads))
	for i, load := range loads {
		if !finite(load) {
			return nil, fmt.Errorf("serve: load sweep: load %v is not a finite number", load)
		}
		if load <= 0 {
			load = defaultLoad
		}
		replayed[i] = load
		gens[i] = sync.OnceValue(func() *arrivals { return p.arrivals(load) })
	}
	cells := make([]cell, 0, len(policies)*len(loads))
	for _, name := range policies {
		for i := range loads {
			policy, err := NewPolicy(name, p.opts.Tenants)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{load: replayed[i], policy: policy, gen: gens[i]})
		}
	}

	// Each running cell takes a scratch from the free list, or makes one
	// when it is empty, and hands it back when done: there are never more
	// than there are workers, and a warm cell allocates only its rows. The
	// list has room for one per cell, so handing one back never blocks. The
	// table prints per-tenant rows only, so no cell computes the overall
	// ones.
	free := make(chan *scratch, len(cells))
	// No cell starts once ctx is done; a running one stops at its next
	// context check.
	engine.New(p.opts.Parallelism).Each(ctx, len(cells), func(i int) {
		var s *scratch
		select {
		case s = <-free:
		default:
			s = new(scratch)
		}
		defer func() { free <- s }()
		c := &cells[i]
		arr := c.gen()
		outs, makespan, err := p.replay(ctx, c.policy, arr, s)
		if err != nil {
			c.err = err
			return
		}
		c.rows = s.tenantMetrics(arr, outs, makespan)
	})
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("serve: load sweep: %w", err)
	}

	tab := &artifact.Table{
		Key:   "serve-load",
		ID:    "Serve",
		Title: "p50/p99 latency vs offered load by policy",
		Scale: p.opts.Scale.String(),
		Columns: []artifact.Column{
			{Name: "policy"}, {Name: "load"}, {Name: "tenant"},
			{Name: "p50", Unit: "ms"}, {Name: "p99", Unit: "ms"},
			{Name: "throughput", Unit: "req/s"}, {Name: "energy/req", Unit: "uJ"},
		},
	}
	for i := range cells {
		c := &cells[i]
		if c.err != nil {
			return nil, fmt.Errorf("serve: load sweep %s@%.2f: %w", c.policy.Name(), c.load, c.err)
		}
		for _, t := range c.rows {
			tab.AddRow(
				artifact.Str(c.policy.Name()), num(c.load), artifact.Str(t.Tenant),
				num(t.P50MS), num(t.P99MS),
				num(t.ThroughputRPS), num(t.EnergyPerReqUJ),
			)
		}
	}
	return tab, nil
}
