package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"upim"
	"upim/internal/cli"
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

// serveMain is the `upimulator serve` entry point.
func serveMain(args []string) int {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprint(os.Stderr, serveUsage, "\nFlags:\n")
		fs.PrintDefaults()
	}
	var (
		tenants  = fs.String("tenants", "alpha=VA+RED:3;beta=BS:1", "tenant spec: name=BENCH+BENCH[:weight], semicolon-separated")
		policy   = fs.String("policy", "fifo", "scheduling policy: "+strings.Join(upim.SchedulingPolicyNames(), ", "))
		groups   = fs.Int("groups", 2, "disjoint DPU rank groups")
		gdpus    = fs.Int("groupdpus", 1, "DPUs per rank group")
		batch    = fs.Int("batch", 4, "max same-kind requests per launch (1 disables batching)")
		requests = fs.Int("requests", 16, "requests per tenant")
		load     = fs.Float64("load", 0.7, "offered load as a fraction of aggregate group capacity")
		seed     = fs.Int64("seed", 1, "arrival-stream seed")
		scale    = fs.String("scale", "tiny", "dataset scale: tiny, small or paper")
		jobs     = fs.Int("jobs", 0, "concurrent profiling simulations (0 = GOMAXPROCS; never affects results)")
		maxQueue = fs.Int("maxqueue", 0, "admission-control queue bound (0 = unbounded)")
		loads    = fs.String("loads", "", "comma-separated offered loads: also produce the p50/p99-vs-load artifact")
		policies = fs.String("policies", "fifo,wfq", "policies for the -loads sweep")
		out      = fs.String("out", "", "write a browsable report (CSV+JSON+Markdown) into this directory")
		check    = fs.Bool("check", false, "validate artifacts against the committed tiny-scale reference")
		eps      = fs.Float64("eps", 0, "relative tolerance for -check (0 = the 1% default)")
		writeref = fs.String("writeref", "", "write reference JSON artifacts into this directory (maintainers only)")
	)
	fs.Parse(args)

	sc, err := upim.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upimulator serve:", err)
		return 2
	}
	tn, err := parseTenants(*tenants)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upimulator serve:", err)
		return 2
	}
	pol, err := upim.NewSchedulingPolicy(*policy, tn)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upimulator serve:", err)
		return 2
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	opts := upim.ServeOptions{
		Tenants:     tn,
		Policy:      pol,
		Groups:      *groups,
		GroupDPUs:   *gdpus,
		MaxBatch:    *batch,
		Requests:    *requests,
		Load:        *load,
		Seed:        *seed,
		MaxQueue:    *maxQueue,
		Scale:       sc,
		Parallelism: *jobs,
	}
	res, err := upim.Serve(ctx, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "upimulator serve:", err)
		return 1
	}
	tables := []*upim.ResultTable{res.RequestTable(), res.SummaryTable()}
	if *loads != "" {
		ls, err := parseLoads(*loads)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upimulator serve:", err)
			return 2
		}
		tab, err := upim.ServeLoadSweep(ctx, opts, strings.Split(*policies, ","), ls)
		if err != nil {
			fmt.Fprintln(os.Stderr, "upimulator serve:", err)
			return 1
		}
		tables = append(tables, tab)
	}

	for _, tab := range tables {
		tab.Fprint(os.Stdout)
		fmt.Println()
	}
	return cli.Report{Out: *out, WriteRef: *writeref, Check: *check, Eps: *eps}.Finish("upimulator serve", tables)
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
		// Not "v <= 0": NaN must fail too, and ParseFloat accepts "NaN"/"Inf".
		if err != nil || !(v > 0) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("load %q is not a positive finite number", part)
		}
		out = append(out, v)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty load list")
	}
	return out, nil
}
