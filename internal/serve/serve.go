// Package serve evaluates the simulated PIM system as a *server under
// load* rather than a closed sweep — the paper's case study 3 carried to
// its datacenter conclusion: concurrent tenants, MMU-isolated, placed on
// disjoint DPU rank groups, with request-level metrics (p50/p95/p99
// latency, throughput, energy per request) no per-kernel sweep can
// express.
//
// The design splits cleanly into a cycle-exact part and a queueing part:
//
//   - Profiling: every distinct (benchmark, rank-group) kernel a workload
//     can issue is simulated once, cycle-exactly, through the shared sweep
//     engine (build cache, MMU-enabled configuration). The profile
//     captures the phase-bucketed service time and the event-level energy
//     of one execution.
//   - Serving: a virtual-time discrete-event loop replays a seeded
//     open-loop Poisson arrival stream against the profiled service times.
//     A Policy picks the next request, the scheduler batches same-kind
//     requests, and disjoint rank groups serve batches one at a time.
//
// The profiles do not depend on the offered load or the policy, so a run
// is "prepare once, replay many": Serve is prepare plus one replay, and
// LoadSweep is prepare plus one replay per (policy, load) cell.
//
// No wall clock is ever read: arrivals, service and completion all happen
// in virtual seconds, so a serving run is a pure function of its options —
// repeat runs and runs at any engine parallelism produce byte-identical
// request tables, the same bulk≡stepwise/resume discipline the rest of the
// simulator is held to.
package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"slices"

	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/engine"
	"upim/internal/host"
	"upim/internal/prim"
)

// Tenant is one co-located workload: a name, the kernels it issues, its
// weighted-fair share and its latency SLO.
type Tenant struct {
	// Name identifies the tenant in requests, metrics and artifacts.
	Name string
	// Mix lists the PrIM benchmarks the tenant issues; each request picks
	// one via the tenant's seeded RNG. Must be non-empty.
	Mix []string
	// Weight is the weighted-fair share (PolicyWeightedFair); <= 0 means 1.
	Weight float64
	// SLOClass labels the tenant's latency class ("latency", "batch", ...).
	// Empty defaults to the tenant name.
	SLOClass string
	// SLOTarget is the per-request latency target in virtual seconds
	// (SLO-attainment metrics). <= 0 auto-derives 3x the tenant's mean
	// unbatched service time. A class's target, which SLOAware deadlines
	// add to each arrival, is the last positive SLOTarget its tenants set,
	// else the first tenant's derived one.
	SLOTarget float64
	// Rate is the tenant's Poisson arrival rate in requests per virtual
	// second. <= 0 derives the rate from Options.Load and the tenant's
	// weight (the offered-load knob the load sweep turns).
	Rate float64
	// Requests is how many requests the tenant emits; <= 0 means
	// Options.Requests.
	Requests int
}

// Request is one arrival of the workload.
type Request struct {
	// ID is the global arrival index (assigned in merged arrival order).
	ID int
	// Tenant and Class identify the issuer.
	Tenant string
	Class  string
	// Benchmark is the PrIM kernel the request runs.
	Benchmark string
	// Arrival is the request's arrival time in virtual seconds.
	Arrival float64
	// deadline is Arrival plus the SLO target of the request's class, fixed
	// when the stream is generated: what SLOAware orders by.
	deadline float64
}

// Record is one request's completed lifecycle.
type Record struct {
	Request
	// Start and Finish bound the request's service in virtual seconds
	// (Start includes queueing delay; Finish - Arrival is the latency).
	Start, Finish float64
	// Batch is the size of the launch the request rode in.
	Batch int
	// EnergyUJ is the request's share of its batch's modeled energy.
	EnergyUJ float64
	// Dropped marks a request rejected by admission control; dropped
	// requests carry no Start/Finish/energy.
	Dropped bool
}

// Latency returns the request's end-to-end latency in virtual seconds.
func (r *Record) Latency() float64 { return r.Finish - r.Arrival }

// SLOMet reports whether the request finished within target seconds.
func (r *Record) SLOMet(target float64) bool {
	return !r.Dropped && target > 0 && r.Latency() <= target
}

// Options parameterize one serving run.
type Options struct {
	// Tenants are the co-located workloads. At least one is required.
	Tenants []Tenant
	// Policy schedules pending requests (nil = FIFO).
	Policy Policy
	// Groups is the number of disjoint DPU rank groups (default 2). Each
	// group serves one batch at a time.
	Groups int
	// GroupDPUs is the rank-group allocation size in DPUs (default 1).
	// Groups × GroupDPUs may not exceed 2560 DPUs (ErrTooManyDPUs).
	GroupDPUs int
	// MaxBatch bounds how many queued same-(tenant, benchmark) requests
	// one launch may carry (default 4, 1 disables batching; a bound above
	// the request count means the request count).
	MaxBatch int
	// Requests is the default per-tenant request count (default 16). The
	// tenants' counts may not sum past 2^24 (ErrTooManyRequests).
	Requests int
	// Load is the target offered load as a fraction of the rank groups'
	// aggregate service capacity (default 0.7); it derives per-tenant
	// Poisson rates for tenants without an explicit Rate.
	Load float64
	// Seed seeds the arrival generator (default 1). Same seed, same
	// workload — the determinism contract.
	Seed int64
	// MaxQueue caps the pending queue; arrivals beyond it are dropped by
	// admission control (0 = unbounded).
	MaxQueue int

	// Config is the per-DPU hardware configuration (zero value = Table I
	// with the case-study 3 MMU enabled — tenants are isolated by
	// translation, the paper's multi-tenancy requirement).
	Config config.Config
	// Scale selects dataset sizes for the profiled kernels.
	Scale prim.Scale
	// Parallelism bounds the worker pools: the profiling sweep's, and the
	// (policy, load) cells a LoadSweep replays at once (<= 0 = GOMAXPROCS).
	// It affects wall-clock time only, never results.
	Parallelism int
	// Watchdog bounds each profiled launch's per-DPU cycles (0 = default).
	Watchdog uint64
	// Profile prices the energy accounting (nil = the committed default).
	Profile *energy.TechProfile
}

// defaultLoad is the offered load a non-positive Options.Load means.
const defaultLoad = 0.7

// withDefaults resolves defaulted options (pure; does not mutate o).
func (o Options) withDefaults() Options {
	if o.Policy == nil {
		o.Policy = FIFO()
	}
	if o.Groups <= 0 {
		o.Groups = 2
	}
	if o.GroupDPUs <= 0 {
		o.GroupDPUs = 1
	}
	if o.MaxBatch <= 0 {
		o.MaxBatch = 4
	}
	if o.Requests <= 0 {
		o.Requests = 16
	}
	if o.Load <= 0 {
		o.Load = defaultLoad
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Config == (config.Config{}) {
		o.Config = config.Default()
		o.Config.MMU.Enable = true
		o.Config.MMU.Prefault = false
	}
	return o
}

// profile is one benchmark's cycle-exact service/energy characterization
// on a rank group.
type profile struct {
	// inS is the CPU->DPU input staging time, paid once per batch (the
	// shared operand set is broadcast).
	inS float64
	// perS is the per-request service time: kernel plus result extraction.
	perS float64
	// inUJ / perUJ split the energy the same way.
	inUJ, perUJ float64
}

// service returns the modeled service time of a batch of k requests.
func (p profile) service(k int) float64 { return p.inS + float64(float64(k)*p.perS) }

// energyPerReq returns one request's share of a k-batch's energy in µJ.
func (p profile) energyPerReq(k int) float64 { return p.inUJ/float64(k) + p.perUJ }

// Result is one completed serving run.
type Result struct {
	// PolicyName names the scheduling policy the run used.
	PolicyName string
	// Groups and GroupDPUs echo the placement.
	Groups, GroupDPUs int
	// Load echoes the offered-load setting.
	Load float64
	// Scale is the dataset scale the kernels were profiled at.
	Scale prim.Scale
	// Records holds every request in ID (arrival) order, completed and
	// dropped alike.
	Records []Record
	// Tenants holds per-tenant metrics in Options.Tenants order; Overall
	// aggregates all tenants.
	Tenants []TenantMetrics
	Overall Metrics
	// Makespan is the virtual time at which the last request finished.
	Makespan float64
}

// maxServerDPUs bounds Groups × GroupDPUs at a full 20-DIMM UPMEM server.
// Profiling builds GroupDPUs DPUs per kernel, and the replay keeps a busy
// time per group and scans them all on every event, so a mistyped count
// must be refused before either asks for gigabytes.
const maxServerDPUs = 2560

// ErrTooManyDPUs reports options whose rank groups hold more DPUs than a
// full UPMEM server.
var ErrTooManyDPUs = errors.New("serve: more than 2560 DPUs, a full 20-DIMM UPMEM server")

// maxRequests bounds a request stream, summed over its tenants: the
// generator sizes its buffers by the total, so a mistyped count must be
// refused before profiling, not panic there.
const maxRequests = 1 << 24

// ErrTooManyRequests reports a request stream of more than 2^24 requests.
var ErrTooManyRequests = fmt.Errorf("serve: more than %d requests in all", maxRequests)

// finite reports whether v is an ordinary number (not NaN, not ±Inf).
func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// validate rejects options the run cannot serve, before defaults apply.
// Non-finite numbers are errors rather than defaults: a NaN load or rate
// makes every arrival NaN, which no event of the virtual-time loop ever
// reaches.
func (o Options) validate() error {
	if len(o.Tenants) == 0 {
		return fmt.Errorf("serve: no tenants (the request stream needs at least one issuer)")
	}
	if !finite(o.Load) {
		return fmt.Errorf("serve: load %v is not a finite number", o.Load)
	}
	d := o.withDefaults()
	if d.GroupDPUs > maxServerDPUs/d.Groups {
		return fmt.Errorf("%w: %d groups of %d DPUs", ErrTooManyDPUs, d.Groups, d.GroupDPUs)
	}
	seen, requests := make(map[string]bool, len(o.Tenants)), 0
	for i, tn := range o.Tenants {
		if tn.Name == "" {
			return fmt.Errorf("serve: tenant %d has no name", i)
		}
		if seen[tn.Name] {
			return fmt.Errorf("serve: duplicate tenant name %q", tn.Name)
		}
		seen[tn.Name] = true
		if len(tn.Mix) == 0 {
			return fmt.Errorf("serve: tenant %q has an empty benchmark mix", tn.Name)
		}
		for _, b := range tn.Mix {
			if _, err := prim.ByName(b); err != nil {
				return fmt.Errorf("serve: tenant %q: %w", tn.Name, err)
			}
		}
		for _, f := range []struct {
			name string
			v    float64
		}{{"rate", tn.Rate}, {"weight", tn.Weight}, {"SLO target", tn.SLOTarget}} {
			if !finite(f.v) {
				return fmt.Errorf("serve: tenant %q: %s %v is not a finite number", tn.Name, f.name, f.v)
			}
		}
		n := cmp.Or(max(tn.Requests, 0), d.Requests)
		if n > maxRequests-requests {
			return fmt.Errorf("%w: tenant %q asks for %d", ErrTooManyRequests, tn.Name, n)
		}
		requests += n
	}
	return nil
}

// prepared is a workload ready to replay: the defaulted, validated options
// and the cycle-exact kernel profiles. The profiles depend only on
// Config/GroupDPUs/Scale/Watchdog/Profile — never on Load or Policy — so
// one prepared value serves every (policy, load) cell of a sweep, read-only.
type prepared struct {
	opts Options
	// kernels names the workload's distinct benchmarks, sorted; a request's
	// kernel index points into it and into profiles.
	kernels  []string
	profiles []profile
}

// prepare validates opts and profiles the workload's kernels.
func prepare(ctx context.Context, opts Options) (*prepared, error) {
	if err := opts.validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()
	p := &prepared{opts: opts}
	var err error
	if p.kernels, p.profiles, err = profileKernels(ctx, opts); err != nil {
		return nil, err
	}
	return p, nil
}

// Serve profiles the workload's kernels cycle-exactly and replays the
// arrival stream through the scheduler. The returned Result is a pure
// function of opts: repeat runs — at any Parallelism — are identical.
func Serve(ctx context.Context, opts Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p, err := prepare(ctx, opts)
	if err != nil {
		return nil, err
	}
	arr := p.arrivals(p.opts.Load)
	outs, makespan, err := p.replay(ctx, p.opts.Policy, arr, new(scratch))
	if err != nil {
		return nil, err
	}
	res := &Result{
		PolicyName: p.opts.Policy.Name(),
		Groups:     p.opts.Groups,
		GroupDPUs:  p.opts.GroupDPUs,
		Load:       arr.load,
		Scale:      p.opts.Scale,
		Records:    make([]Record, len(outs)),
		Makespan:   makespan,
	}
	// The records join each arrival with its outcome.
	for id := range outs {
		o := &outs[id]
		res.Records[id] = Record{
			Request:  arr.reqs[id],
			Start:    o.start,
			Finish:   o.finish,
			Batch:    int(o.batch),
			EnergyUJ: o.energyUJ,
			Dropped:  o.dropped,
		}
	}
	res.Tenants, res.Overall = computeMetrics(arr, outs, makespan)
	return res, nil
}

// profileKernels simulates every distinct benchmark of the workload once on
// a rank group, through a sweep engine, and returns their sorted names and,
// index for index, their profiles.
func profileKernels(ctx context.Context, opts Options) ([]string, []profile, error) {
	var names []string
	for _, tn := range opts.Tenants {
		names = append(names, tn.Mix...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	pts := make([]engine.Point, len(names))
	for i, b := range names {
		pts[i] = engine.Point{
			Benchmark: b,
			Config:    opts.Config,
			DPUs:      opts.GroupDPUs,
			Scale:     opts.Scale,
			Watchdog:  opts.Watchdog,
		}
	}
	outs, err := engine.New(opts.Parallelism).SweepAll(ctx, pts)
	if err != nil {
		return nil, nil, fmt.Errorf("serve: profiling %s: %w", outs[firstErr(outs)].Point.Benchmark, err)
	}
	prof := energy.ResolveProfile(opts.Profile)
	profiles := make([]profile, len(names))
	for i, o := range outs {
		profiles[i] = profileOf(o.Result, prof)
	}
	return names, profiles, nil
}

// profileOf splits one cycle-exact result into the batch-shared input part
// and the per-request part.
func profileOf(res *prim.Result, prof *energy.TechProfile) profile {
	rep := res.Report
	total := res.Energy(prof).MicroJoules()
	in := energy.HostTransfer(prof, rep.BytesIn, 0).MicroJoules()
	return profile{
		inS:   rep.PhaseSeconds(host.PhaseInput),
		perS:  rep.KernelSeconds + rep.PhaseSeconds(host.PhaseOutput) + rep.PhaseSeconds(host.PhaseExchange),
		inUJ:  in,
		perUJ: math.Max(0, total-in),
	}
}

// firstErr finds the index of the first failed outcome (outs are
// input-ordered after SweepAll).
func firstErr(outs []engine.Outcome) int {
	for i, o := range outs {
		if o.Err != nil {
			return i
		}
	}
	return 0
}

// tenant is a Tenant with every defaulted field resolved against the
// kernel profiles.
type tenant struct {
	Tenant
	// kernels resolves Mix, entry for entry, to kernel indices.
	kernels []int32
	// meanS is the tenant's mean unbatched service time over its mix.
	meanS float64
	// classTarget is the SLO target of the tenant's class: what its
	// requests' deadlines add to their arrivals.
	classTarget float64
}

// tenantsAt fills derived tenant fields — class, weight, SLO targets and
// Poisson rate — for one offered load (only the derived rates depend on it).
func (p *prepared) tenantsAt(load float64) []tenant {
	opts := p.opts
	out := make([]tenant, len(opts.Tenants))
	var weightSum float64
	for _, tn := range opts.Tenants {
		w := tn.Weight
		if w <= 0 {
			w = 1
		}
		weightSum += w
	}
	for i, tn := range opts.Tenants {
		t := tenant{Tenant: tn}
		if t.Weight <= 0 {
			t.Weight = 1
		}
		if t.SLOClass == "" {
			t.SLOClass = t.Name
		}
		if t.Requests <= 0 {
			t.Requests = opts.Requests
		}
		t.kernels = make([]int32, len(t.Mix))
		for j, b := range t.Mix {
			k, _ := slices.BinarySearch(p.kernels, b) // every mix entry was profiled
			t.kernels[j] = int32(k)
			t.meanS += p.profiles[k].service(1)
		}
		t.meanS /= float64(len(t.Mix))
		if t.SLOTarget <= 0 {
			t.SLOTarget = 3 * t.meanS
		}
		if t.Rate <= 0 {
			// The tenant's share of the groups' aggregate capacity at the
			// target offered load: load * groups * (weight fraction) requests
			// per mean service time.
			t.Rate = load * float64(opts.Groups) * (t.Weight / weightSum) / t.meanS
		}
		out[i] = t
	}
	// A class's target is the last positive SLOTarget a tenant of the class
	// sets, else the first tenant's derived one.
	for i := range out {
		set, derived := 0.0, 0.0
		for j := range out {
			switch {
			case out[j].SLOClass != out[i].SLOClass:
			case opts.Tenants[j].SLOTarget > 0:
				set = out[j].SLOTarget
			case derived == 0:
				derived = out[j].SLOTarget
			}
		}
		out[i].classTarget = cmp.Or(set, derived)
	}
	return out
}
