package serve

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"upim/internal/artifact"
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
// on up to Options.Parallelism workers. Rows are assembled in (policy,
// load) order, so the table never depends on the worker count.
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
		name   string
		load   float64
		policy Policy
		gen    func() (*arrivals, error)
		// rows are the cell's per-tenant metrics: all the table keeps of a
		// Result, so a cell's records are garbage as soon as it finishes.
		rows []TenantMetrics
		err  error
	}
	// One lazily generated stream per load, whichever cell needs it first.
	gens := make([]func() (*arrivals, error), len(loads))
	for i, load := range loads {
		if !finite(load) {
			return nil, fmt.Errorf("serve: load sweep: load %v is not a finite number", load)
		}
		if load <= 0 {
			load = defaultLoad
		}
		gens[i] = sync.OnceValues(func() (*arrivals, error) { return p.arrivals(load) })
	}
	cells := make([]cell, 0, len(policies)*len(loads))
	for _, name := range policies {
		for i, load := range loads {
			policy, err := NewPolicy(name, p.opts.Tenants)
			if err != nil {
				return nil, err
			}
			cells = append(cells, cell{name: name, load: load, policy: policy, gen: gens[i]})
		}
	}

	workers := p.opts.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(cells))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// No cell starts once ctx is done; a running one stops at its
			// next context check.
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(cells) {
					return
				}
				c := &cells[i]
				arr, err := c.gen()
				if err != nil {
					c.err = err
					continue
				}
				res, err := p.replay(ctx, c.policy, arr)
				if err != nil {
					c.err = err
					continue
				}
				c.rows = res.Tenants
			}
		}()
	}
	wg.Wait()
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
			return nil, fmt.Errorf("serve: load sweep %s@%.2f: %w", c.name, c.load, c.err)
		}
		for _, t := range c.rows {
			tab.AddRow(
				artifact.Str(c.name), num(c.load), artifact.Str(t.Tenant),
				num(t.P50MS), num(t.P99MS),
				num(t.ThroughputRPS), num(t.EnergyPerReqUJ),
			)
		}
	}
	return tab, nil
}
