package main

import (
	"fmt"
	"io/fs"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"upim"
	"upim/internal/artifact"
	"upim/internal/config"
	"upim/internal/coord"
	"upim/internal/core"
	"upim/internal/dram"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/explore"
	"upim/internal/host"
	"upim/internal/linker"
	"upim/internal/machine"
	"upim/internal/prim"
	"upim/internal/stats"
)

// The layer ladder: micro-probes that time calls into each internal
// package's public functions from outside, single-threaded and on warm
// caches unless a probe is named cold or fresh. Every timing is HOST time
// (what the simulator costs to run), never simulated time. Each probe
// measures ladderBatches batches and reports their median.
const ladderBatches = 5

// ladderMetric is one per-layer metric with its per-batch values.
type ladderMetric struct {
	name, unit string
	values     []float64
}

type ladder struct {
	e *env
	// batch is how long one batch of one probe measures for.
	batch time.Duration
	rng   *rand.Rand
	out   []ladderMetric
}

// timedProbes is how many probes share the ladder's time budget (the
// figures rung runs every experiment exactly once instead).
const timedProbes = 40

func runLadder(e *env, budget time.Duration) ([]ladderMetric, error) {
	l := &ladder{
		e: e, rng: rand.New(rand.NewSource(e.seed)),
		batch: max(budget/(2*timedProbes), e.sz.probeFloor) / ladderBatches,
	}
	for _, rung := range []func() error{
		l.core, l.dram, l.host, l.prim, l.engine, l.estimate,
		l.explore, l.coord, l.serve, l.figures,
	} {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
		if err := rung(); err != nil {
			return nil, err
		}
	}
	return l.out, nil
}

// time runs op back to back for l.batch, ladderBatches times over, and
// returns the seconds one op took in each batch, after one untimed op that
// fills caches and grows slabs. The first error stops it.
func (l *ladder) time(op func() error) ([]float64, error) {
	if err := op(); err != nil {
		return nil, err
	}
	vals := make([]float64, 0, ladderBatches)
	for b := 0; b < ladderBatches; b++ {
		n := 0
		start := time.Now()
		for {
			if err := op(); err != nil {
				return nil, err
			}
			n++
			if time.Since(start) >= l.batch {
				break
			}
		}
		vals = append(vals, time.Since(start).Seconds()/float64(n))
	}
	return vals, nil
}

// probe times op and records seconds-per-op times scale under name.
func (l *ladder) probe(name, unit string, scale float64, op func() error) error {
	vals, err := l.time(op)
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for i := range vals {
		vals[i] *= scale
	}
	l.out = append(l.out, ladderMetric{name, unit, vals})
	return nil
}

func (l *ladder) record(name, unit string, v ...float64) {
	l.out = append(l.out, ladderMetric{name, unit, v})
}

const (
	ns = 1e9
	us = 1e6
	ms = 1e3
)

// program builds and links one PrIM kernel.
func program(bench string, cfg config.Config) (*linker.Program, error) {
	b, err := prim.ByName(bench)
	if err != nil {
		return nil, err
	}
	obj, err := b.Build(cfg.Mode)
	if err != nil {
		return nil, err
	}
	return linker.Link(obj, cfg)
}

// --- core -------------------------------------------------------------------

// kips times warm Runner.Run of one benchmark (build cached, DPU shell
// recycled: the steady state of a sweep worker, as BenchmarkSimulationRate)
// and reports simulated kilo-instructions per host second.
func (l *ladder) kips(name, bench string, opts ...upim.RunnerOption) error {
	r, err := upim.NewRunner(append([]upim.RunnerOption{upim.WithScale(upim.ScaleTiny)}, opts...)...)
	if err != nil {
		return err
	}
	var instr uint64
	vals, err := l.time(func() error {
		res, err := r.Run(l.e.ctx, bench)
		if err == nil {
			instr = res.Stats.Instructions
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	for i := range vals {
		vals[i] = float64(instr) / vals[i] / 1e3
	}
	l.record(name, "kinstr/s", vals...)
	return nil
}

func (l *ladder) core() error {
	simt := upim.DefaultConfig()
	simt.Mode, simt.SIMTCoalesce = upim.ModeSIMT, true
	for _, k := range []struct {
		name, bench string
		opts        []upim.RunnerOption
	}{
		{"core.kips_scalar", "VA", []upim.RunnerOption{upim.WithTasklets(16)}},
		{"core.kips_1tasklet", "VA", []upim.RunnerOption{upim.WithTasklets(1)}},
		{"core.kips_cache", "BS", []upim.RunnerOption{upim.WithMode(upim.ModeCache)}},
		{"core.kips_simt", "GEMV", []upim.RunnerOption{upim.WithConfig(simt)}},
	} {
		if err := l.kips(k.name, k.bench, k.opts...); err != nil {
			return err
		}
	}
	cfg := config.Default()
	prog, err := program("VA", cfg)
	if err != nil {
		return err
	}
	arena := core.NewArena()
	if err := l.probe("core.shell_reuse_us", "us", us, func() error {
		d, err := core.NewInArena(arena, 0, prog, cfg)
		if err == nil {
			d.Release()
		}
		return err
	}); err != nil {
		return err
	}
	return l.probe("core.shell_fresh_us", "us", us, func() error {
		_, err := core.New(0, prog, cfg)
		return err
	})
}

// --- dram -------------------------------------------------------------------

// drain enqueues one burst per address at now and advances the bank until
// all are scheduled, as the core's event clock does; it returns the new now.
func drain(b *dram.Bank, addrs []uint32, now dram.Tick, out []dram.Completion) dram.Tick {
	for i, a := range addrs {
		b.Enqueue(a, false, now, uint64(i))
	}
	for b.Pending() > 0 {
		at, ok := b.NextDecisionAt()
		if !ok {
			break
		}
		now = max(now, at)
		out = b.Advance(now, out[:0])
	}
	return now
}

func (l *ladder) dram() error {
	cfg := config.Default()
	const bursts = 256
	burst, rows := uint32(cfg.BurstBytes), uint32(cfg.MRAMBytes/cfg.RowBytes)
	// Seeded address streams: one walks a single row, one lands every burst
	// in a different random row.
	hit, conflict := make([]uint32, bursts), make([]uint32, bursts)
	row := l.rng.Uint32() % rows
	for i := range hit {
		hit[i] = row*uint32(cfg.RowBytes) + uint32(i)*burst%uint32(cfg.RowBytes)
		conflict[i] = (l.rng.Uint32() % rows) * uint32(cfg.RowBytes)
	}
	for _, s := range []struct {
		name  string
		addrs []uint32
	}{{"dram.rowhit_ns_per_burst", hit}, {"dram.conflict_ns_per_burst", conflict}} {
		var st stats.DRAM
		bank := dram.NewBank(cfg, &st)
		var now dram.Tick
		out := make([]dram.Completion, 0, bursts)
		if err := l.probe(s.name, "ns", ns/bursts, func() error {
			now = drain(bank, s.addrs, now, out)
			return nil
		}); err != nil {
			return err
		}
	}
	link := dram.NewLink(cfg)
	return l.probe("dram.link_reserve_ns", "ns", ns/bursts, func() error {
		for i := 0; i < bursts; i++ {
			link.Reserve(link.FreeAt(), cfg.BurstBytes)
		}
		return nil
	})
}

// --- host -------------------------------------------------------------------

func (l *ladder) host() error {
	cfg := config.Default()
	prog, err := program("VA", cfg)
	if err != nil {
		return err
	}
	sys, err := host.NewSystemFromProgram(prog, cfg, 1)
	if err != nil {
		return err
	}
	const kib = 64
	buf := make([]byte, kib<<10)
	if err := l.probe("host.copy_in_ns_per_kib", "ns", ns/kib, func() error {
		return sys.CopyToMRAM(0, 0, buf)
	}); err != nil {
		return err
	}
	if err := l.probe("host.read_out_ns_per_kib", "ns", ns/kib, func() error {
		return sys.ReadMRAMInto(0, 0, buf)
	}); err != nil {
		return err
	}
	// A batched launch of 64 DPUs running a kernel that stops at once: what
	// Launch itself costs per DPU, with the kernel's own cycles near zero.
	obj, err := upim.Assemble("stop", "stop\n")
	if err != nil {
		return err
	}
	const dpus = 64
	rank, err := host.NewSystem(obj, cfg, dpus)
	if err != nil {
		return err
	}
	return l.probe("host.launch64_us_per_dpu", "us", us/dpus, func() error {
		return rank.Launch(l.e.ctx)
	})
}

// --- prim -------------------------------------------------------------------

func (l *ladder) prim() error {
	spec := prim.Spec{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	run := func(cache func() *prim.BuildCache) func() error {
		return func() error {
			sp := spec
			sp.Cache = cache()
			_, err := prim.RunSpec(l.e.ctx, sp)
			return err
		}
	}
	// The same RunSpec with a fresh and with a shared build cache: the
	// difference is what assemble+link cost.
	if err := l.probe("prim.build_cold_us", "us", us, run(prim.NewBuildCache)); err != nil {
		return err
	}
	shared := prim.NewBuildCache()
	return l.probe("prim.build_hit_us", "us", us, run(func() *prim.BuildCache { return shared }))
}

// --- engine / machine / hbmpim ----------------------------------------------

func (l *ladder) engine() error {
	p := engine.Point{Benchmark: "GEMV", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny, Machine: machine.HBMPIM()}
	eng := engine.New(1)
	if err := l.probe("engine.point_hbmpim_us", "us", us, func() error {
		_, err := eng.Run(l.e.ctx, p)
		return err
	}); err != nil {
		return err
	}
	// The backend called directly: engine.point_hbmpim_us minus this is the
	// engine's dispatch (backend lookup, machine.Workload rebuild, arena).
	be, err := machine.BackendFor(machine.ArchHBMPIM)
	if err != nil {
		return err
	}
	w := machine.Workload{Benchmark: p.Benchmark, Config: p.Config, Desc: p.Machine, Sites: p.DPUs, Scale: p.Scale}
	if err := l.probe("hbmpim.point_us", "us", us, func() error {
		_, err := be.Run(l.e.ctx, w)
		return err
	}); err != nil {
		return err
	}
	direct := median(l.out[len(l.out)-1].values)
	const lookups = 1024
	if err := l.probe("machine.backend_lookup_ns", "ns", ns/lookups, func() error {
		for i := 0; i < lookups; i++ {
			if _, err := machine.BackendFor(machine.ArchHBMPIM); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// A one-worker sweep of cheap points, per point, minus the direct cost:
	// what the sweep machinery (channel, goroutine, arena) adds to a point.
	pts := make([]engine.Point, 64)
	for i := range pts {
		pts[i] = p
	}
	if err := l.probe("engine.sweep_overhead_us_per_point", "us", us/float64(len(pts)), func() error {
		_, err := eng.SweepAll(l.e.ctx, pts)
		return err
	}); err != nil {
		return err
	}
	for i := range l.out[len(l.out)-1].values {
		l.out[len(l.out)-1].values[i] -= direct
	}
	return nil
}

// --- estimate / energy ------------------------------------------------------

func (l *ladder) estimate() error {
	est, err := estimate.New(nil, nil)
	if err != nil {
		return err
	}
	p := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	if err := l.probe("estimate.point_ns", "ns", ns, func() error {
		_, err := est.Estimate(p)
		return err
	}); err != nil {
		return err
	}
	res, err := engine.New(1).Run(l.e.ctx, p)
	if err != nil {
		return err
	}
	return l.probe("energy.report_ns", "ns", ns, func() error {
		res.Energy(nil)
		return nil
	})
}

// --- explore / artifact -----------------------------------------------------

// percentiles reports the p50 and p99 of per-call latencies in µs.
func (l *ladder) percentiles(name string, lat []float64) {
	sort.Float64s(lat)
	l.record(name+"_p50_us", "us", us*quantile(lat, 0.50))
	l.record(name+"_p99_us", "us", us*quantile(lat, 0.99))
}

func (l *ladder) explore() error {
	space, err := l.e.space(nil, l.e.sz.tieredAxes)
	if err != nil {
		return err
	}
	var pts []upim.DesignPoint
	if err := l.probe("explore.points_enum_us_per_kpt", "us", 1, func() error {
		pts, err = space.Points()
		return err
	}); err != nil {
		return err
	}
	enum := l.out[len(l.out)-1].values
	for i := range enum {
		enum[i] *= us * 1e3 / float64(len(pts))
	}
	ep := pts[0].EP
	if err := l.probe("explore.keyof_ns", "ns", ns, func() error {
		explore.KeyOf(ep)
		return nil
	}); err != nil {
		return err
	}

	// One real exploration supplies the results, outcomes and tables the
	// store, Pareto and artifact probes work on.
	small, err := l.e.space([]string{"VA"}, l.e.sz.axes)
	if err != nil {
		return err
	}
	x, err := upim.Explore(l.e.ctx, small, upim.ExploreOptions{Parallelism: 1})
	if err != nil {
		return err
	}
	res := x.Outcomes[0].Result
	prediction, err := estimate.New(nil, nil)
	if err != nil {
		return err
	}
	estim, err := prediction.Estimate(ep)
	if err != nil {
		return err
	}
	dir, err := l.e.mkdir("ladder")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	// Every put goes to a new key (the watchdog is part of the content
	// address); gets walk the keys that were put.
	var keys []string
	nextKey := func() string {
		p := ep
		p.Watchdog = uint64(len(keys) + 1)
		keys = append(keys, explore.KeyOf(p))
		return keys[len(keys)-1]
	}
	for _, s := range []struct {
		kind     string
		put, get func(st explore.Backend, key string) error
	}{
		{"", func(st explore.Backend, k string) error { return st.Put(k, ep, res) },
			func(st explore.Backend, k string) error { return hit(st.Get(k)) }},
		{"_est", func(st explore.Backend, k string) error { return st.PutEstimate(k, ep, estim) },
			func(st explore.Backend, k string) error { return hit(st.GetEstimate(k)) }},
	} {
		sub := filepath.Join(dir, "local"+s.kind)
		st, err := explore.OpenStore(sub)
		if err != nil {
			return err
		}
		keys = keys[:0]
		if err := l.probe("explore.store_put"+s.kind+"_us", "us", us, func() error {
			return s.put(st, nextKey())
		}); err != nil {
			return err
		}
		i := 0
		if err := l.probe("explore.store_get"+s.kind+"_us", "us", us, func() error {
			i++
			return s.get(st, keys[i%len(keys)])
		}); err != nil {
			return err
		}
		if s.kind == "" {
			var bytes, files float64
			err := filepath.WalkDir(sub, func(_ string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				info, err := d.Info()
				bytes, files = bytes+float64(info.Size()), files+1
				return err
			})
			if err != nil {
				return err
			}
			l.record("explore.store_bytes_per_point", "B", bytes/files)
		}
	}

	// The same store behind a loopback HTTP server, one client connection,
	// every call timed on its own.
	st, err := explore.OpenStore(filepath.Join(dir, "http"))
	if err != nil {
		return err
	}
	stop, url, err := serveLoopback(explore.NewStoreServer(st))
	if err != nil {
		return err
	}
	defer stop()
	conn, closeConn := oneConnection()
	defer closeConn()
	client, err := explore.DialStore(url, explore.HTTPStoreOptions{Client: conn})
	if err != nil {
		return err
	}
	keys = keys[:0]
	puts, gets := make([]float64, l.e.sz.storeOps), make([]float64, l.e.sz.storeOps)
	for i := range puts {
		key := nextKey()
		start := time.Now()
		if err := client.Put(key, ep, res); err != nil {
			return err
		}
		puts[i] = time.Since(start).Seconds()
	}
	for i := range gets {
		start := time.Now()
		if err := hit(client.Get(keys[i])); err != nil {
			return err
		}
		gets[i] = time.Since(start).Seconds()
	}
	l.percentiles("explore.httpstore_get", gets)
	l.percentiles("explore.httpstore_put", puts)

	if err := l.probe("explore.pareto_us_per_kpt", "us", us*1e3/float64(len(x.Outcomes)), func() error {
		upim.ParetoFront(x.Outcomes, goals...)
		return nil
	}); err != nil {
		return err
	}
	tabs := pathfindTables(x, nil)
	report := filepath.Join(dir, "report")
	if err := l.probe("artifact.write_report_ms", "ms", ms, func() error {
		return artifact.WriteReport(report, tabs)
	}); err != nil {
		return err
	}
	return l.probe("artifact.compare_us", "us", us, func() error {
		return artifact.Compare(tabs[0], tabs[0], 1e-12)
	})
}

// hit turns a store miss into an error: the probes only read what they wrote.
func hit[T any](_ T, ok bool) error {
	if !ok {
		return fmt.Errorf("store miss on a key that was just put")
	}
	return nil
}

// --- coord ------------------------------------------------------------------

func (l *ladder) coord() error {
	space, err := l.e.space(l.e.sz.coldBench, l.e.sz.axes)
	if err != nil {
		return err
	}
	pts, err := space.Points()
	if err != nil {
		return err
	}
	copts := coord.CoordinatorOptions{ShardSize: l.e.sz.shardSize, TTL: l.e.sz.leaseTTL}
	shards := (len(pts) + copts.ShardSize - 1) / copts.ShardSize
	// Lease, renew and complete every shard of a fresh coordinator sized like
	// pathfind_cold's space, in process and then over loopback HTTP.
	cycle := func(api coord.LeaseClient) error {
		for {
			u, done, err := api.Lease("probe")
			if err != nil || done {
				return err
			}
			if u == nil {
				return fmt.Errorf("no shard to lease, yet not done")
			}
			if err := api.Renew(u.Lease); err != nil {
				return err
			}
			if err := api.Complete(u.Lease); err != nil {
				return err
			}
		}
	}
	if err := l.probe("coord.lease_cycle_ns", "ns", ns/float64(shards), func() error {
		return cycle(localLease{coord.NewCoordinator(len(pts), copts)})
	}); err != nil {
		return err
	}
	spec, err := coord.SpecFor(space, 0)
	if err != nil {
		return err
	}
	conn, closeConn := oneConnection()
	defer closeConn()
	return l.probe("coord.http_lease_cycle_us", "us", us/float64(shards), func() error {
		mux := http.NewServeMux()
		coord.NewServer(coord.NewCoordinator(len(pts), copts), spec).Register(mux)
		stop, url, err := serveLoopback(mux)
		if err != nil {
			return err
		}
		defer stop()
		client, err := coord.DialCoordinator(url, coord.ClientOptions{Client: conn})
		if err != nil {
			return err
		}
		return cycle(client)
	})
}

// localLease adapts an in-process Coordinator to coord.LeaseClient (the
// package's own adapter is unexported).
type localLease struct{ c *coord.Coordinator }

func (l localLease) Lease(worker string) (*coord.WorkUnit, bool, error) {
	if u := l.c.Lease(worker); u != nil {
		return u, false, nil
	}
	return nil, l.c.Done(), nil
}
func (l localLease) Renew(lease string) error    { return l.c.Renew(lease) }
func (l localLease) Complete(lease string) error { return l.c.Complete(lease) }

// --- serve ------------------------------------------------------------------

func (l *ladder) serve() error {
	in, err := setupServe(l.e)
	if err != nil {
		return err
	}
	opts := in.(*serveInst).opts
	opts.Parallelism, opts.Load = 1, 0.8
	run := func(policy string, requests int) func() error {
		return func() error {
			p, err := upim.NewSchedulingPolicy(policy, opts.Tenants)
			if err != nil {
				return err
			}
			o := opts
			o.Policy, o.Requests = p, requests
			_, err = upim.Serve(l.e.ctx, o)
			return err
		}
	}
	// One request per tenant: all of Serve's time is profiling the kernels.
	if err := l.probe("serve.profile_ms", "ms", ms, run("fifo", 1)); err != nil {
		return err
	}
	profile := median(l.out[len(l.out)-1].values) / ms
	requests := max(l.e.sz.serveRequests/2, 1)
	total := float64(requests * len(opts.Tenants))
	for _, policy := range l.e.sz.servePolicies {
		vals, err := l.time(run(policy, requests))
		if err != nil {
			return fmt.Errorf("serve.replay_ns_per_req.%s: %w", policy, err)
		}
		for i := range vals {
			vals[i] = (vals[i] - profile) * ns / total
		}
		l.record("serve.replay_ns_per_req."+policy, "ns", vals...)
	}
	return nil
}

// --- figures ----------------------------------------------------------------

// figures runs every experiment once, at the run's parallelism, so a change
// in figures_tiny can be pinned on an experiment.
func (l *ladder) figures() error {
	opts := upim.ExperimentOptions{Scale: upim.ScaleTiny, Parallelism: l.e.jobs}
	for _, x := range upim.Experiments() {
		start := time.Now()
		if _, err := upim.RunExperimentContext(l.e.ctx, x.ID, opts); err != nil {
			return fmt.Errorf("figures.%s_ms: %w", x.ID, err)
		}
		l.record("figures."+x.ID+"_ms", "ms", ms*time.Since(start).Seconds())
	}
	return nil
}
