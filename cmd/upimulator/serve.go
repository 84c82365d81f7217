package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"upim"
	"upim/internal/cli"
	serving "upim/internal/serve"
)

// serveUsage documents the serve subcommand's tenant grammar.
const serveUsage = `upimulator serve — serve a multi-tenant request stream on the simulated PIM system

The workload is co-located tenants issuing PrIM kernels as an open-loop
Poisson stream; a host-side scheduler batches and places them on disjoint
DPU rank groups. Runs are virtual-time deterministic: the same flags
always produce byte-identical artifacts, at any -jobs.

Tenant grammar (-tenants): semicolon-separated "name=BENCH+BENCH[:weight]":

  upimulator serve -tenants "alpha=VA+RED:3;beta=BS:1" -policy wfq -load 0.9
  upimulator serve -loads 0.5,0.7,0.9,1.1 -policies fifo,wfq,slo -out report
`

// serve is the `upimulator serve` subcommand.
func serve(fs *flag.FlagSet) func(context.Context) error {
	fs.Usage = func() {
		fmt.Fprint(fs.Output(), serveUsage, "\nFlags:\n")
		fs.PrintDefaults()
	}
	var (
		sim      cli.Sim // -jobs bounds the profiling simulations and never affects results
		rep      cli.Report
		opts     upim.ServeOptions
		tenants  = fs.String("tenants", "alpha=VA+RED:3;beta=BS:1", "tenant spec: name=BENCH+BENCH[:weight], semicolon-separated")
		policy   = fs.String("policy", "fifo", "scheduling policy: "+strings.Join(upim.SchedulingPolicyNames(), ", "))
		loads    = fs.String("loads", "", "comma-separated offered loads: also produce the p50/p99-vs-load artifact")
		policies = fs.String("policies", "fifo,wfq", "policies for the -loads sweep")
	)
	fs.IntVar(&opts.Groups, "groups", 2, "disjoint DPU rank groups")
	fs.IntVar(&opts.GroupDPUs, "groupdpus", 1, "DPUs per rank group")
	fs.IntVar(&opts.MaxBatch, "batch", 4, "max same-kind requests per launch (1 disables batching)")
	fs.IntVar(&opts.Requests, "requests", 16, "requests per tenant")
	fs.Float64Var(&opts.Load, "load", 0.7, "offered load as a fraction of aggregate group capacity")
	fs.Int64Var(&opts.Seed, "seed", 1, "arrival-stream seed")
	fs.IntVar(&opts.MaxQueue, "maxqueue", 0, "admission-control queue bound (0 = unbounded)")
	sim.Register(fs)
	rep.Register(fs)
	return func(ctx context.Context) error {
		if err := rep.Validate(); err != nil {
			return err
		}
		var err error
		if opts.Tenants, err = parseTenants(*tenants); err != nil {
			return cli.Usage(err)
		}
		if opts.Policy, err = upim.NewSchedulingPolicy(*policy, opts.Tenants); err != nil {
			return cli.Usage(err)
		}
		if !validLoad(opts.Load) {
			return cli.Usagef("load %v is not a positive finite number", opts.Load)
		}
		opts.Scale, opts.Parallelism = sim.Scale, sim.Jobs
		// The sweep's arguments are checked here, not where the sweep runs:
		// the single-load run before it already simulates.
		var sweepLoads []float64
		sweepPolicies := strings.Split(*policies, ",")
		if *loads != "" {
			if sweepLoads, err = parseLoads(*loads); err != nil {
				return cli.Usage(err)
			}
			for _, name := range sweepPolicies {
				if _, err := upim.NewSchedulingPolicy(name, opts.Tenants); err != nil {
					return cli.Usage(err)
				}
			}
		} else if cli.IsSet(fs, "policies") {
			return cli.Usagef("-policies names the policies of the -loads sweep; add -loads to use it")
		}

		res, err := upim.Serve(ctx, opts)
		if errors.Is(err, serving.ErrTooManyDPUs) || errors.Is(err, serving.ErrTooManyRequests) { // refused before profiling
			return cli.Usage(err)
		}
		if err != nil {
			return err
		}
		tables := []*upim.ResultTable{res.RequestTable(), res.SummaryTable()}
		if sweepLoads != nil {
			tab, err := upim.ServeLoadSweep(ctx, opts, sweepPolicies, sweepLoads)
			if err != nil {
				return err
			}
			tables = append(tables, tab)
		}

		for _, tab := range tables {
			tab.Fprint(os.Stdout)
			fmt.Println()
		}
		return rep.Finish("upimulator serve", tables)
	}
}

// parseTenants parses the -tenants grammar: semicolon-separated
// "name=BENCH+BENCH[:weight]".
func parseTenants(spec string) ([]upim.ServeTenant, error) {
	var out []upim.ServeTenant
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, rest, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" || rest == "" {
			return nil, fmt.Errorf("tenant %q: want name=BENCH+BENCH[:weight]", part)
		}
		t := upim.ServeTenant{Name: name}
		if mix, w, ok := strings.Cut(rest, ":"); ok {
			weight, err := strconv.ParseFloat(w, 64)
			if err != nil || !(weight > 0) || math.IsInf(weight, 0) {
				return nil, fmt.Errorf("tenant %q: weight %q is not a positive finite number", name, w)
			}
			t.Weight = weight
			rest = mix
		}
		for _, b := range strings.Split(rest, "+") {
			b = strings.TrimSpace(b)
			if b == "" {
				return nil, fmt.Errorf("tenant %q has an empty benchmark", name)
			}
			t.Mix = append(t.Mix, b)
		}
		out = append(out, t)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty tenant specification")
	}
	return out, nil
}

// parseLoads parses the comma-separated -loads list.
func parseLoads(spec string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || !validLoad(v) {
			return nil, fmt.Errorf("load %q is not a positive finite number", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty load list")
	}
	return out, nil
}

// validLoad reports whether v is a positive finite offered load. The flag
// package and ParseFloat both accept "NaN" (which fails v > 0) and "Inf",
// and a non-finite load spins the event loop forever.
func validLoad(v float64) bool { return v > 0 && !math.IsInf(v, 0) }
