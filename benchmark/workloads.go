package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"upim"
	"upim/internal/prim"
)

// env is what every workload is built from: the run's flags and a scratch
// directory that the run removes on every exit path.
type env struct {
	ctx  context.Context
	jobs int
	seed int64
	sz   sizes
	tmp  string
}

// repOut is what one repetition reports. work, attempted and digest must
// repeat exactly from repetition to repetition.
type repOut struct {
	// work is the completed work in the workload's own unit.
	work int
	// attempted and failed count operations; fails explains the failures.
	attempted, failed int
	fails             []string
	// digest is a SHA-256 over every table the repetition rendered.
	digest string
	// instructions is the simulated instruction count behind the results.
	instructions uint64
	// layer holds per-layer counts only a traced repetition can see.
	layer map[string]float64
	// scratch is the directory of stores and reports the repetition made; the
	// harness removes it once the clock has stopped (a user keeps theirs).
	scratch string
}

// count records one per-layer count of a traced repetition.
func (r *repOut) count(name string, v float64) {
	if r.layer == nil {
		r.layer = map[string]float64{}
	}
	r.layer[name] = v
}

func (r *repOut) fail(format string, args ...any) {
	r.failed++
	if len(r.fails) < 8 {
		r.fails = append(r.fails, fmt.Sprintf(format, args...))
	}
}

// instance is one set-up workload. rep runs one closed-loop repetition; t is
// nil on untraced repetitions and root is the repetition's root span.
type instance interface {
	rep(t *tracer, root int) (repOut, error)
}

// workload is one entry of BENCHMARK.json's "workloads", which also records
// why it was chosen; unit is what its work is counted in.
type workload struct {
	name, unit string
	// setup builds inputs, populates stores and computes references; the
	// harness adds the warm-up repetition and reports both as setup_s.
	setup func(e *env) (instance, error)
}

var workloads = []workload{
	{"figures_tiny", "artifacts", setupFigures},
	{"pathfind_cold", "points", setupCold},
	{"pathfind_resume", "points", setupResume},
	{"coord_http", "points", setupCoord},
	{"tiered_triage", "points", setupTiered},
	{"serve_sweep", "requests", setupServe},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// --- shared helpers ---------------------------------------------------------

func (e *env) space(benches []string, axesSpec string) (*upim.DesignSpace, error) {
	axes, err := upim.ParseAxes(axesSpec)
	if err != nil {
		return nil, err
	}
	if benches == nil {
		benches = upim.Benchmarks()
	}
	s := upim.NewDesignSpace(benches, axes...)
	s.Scale = upim.ScaleTiny
	s.DPUs = 1
	return s, nil
}

func (e *env) mkdir(prefix string) (string, error) { return os.MkdirTemp(e.tmp, prefix) }

// goals are the Pareto objectives of every frontier and tiered band here.
var goals = func() []upim.ExploreGoal {
	g, err := upim.ParseGoals("time,energy,cost", nil)
	if err != nil {
		panic(err) // a constant spec
	}
	return g
}()

// pathfindTables extracts what `pathfind -pareto -goals time,energy,cost
// -energy` prints, after an optional triage table.
func pathfindTables(x *upim.Exploration, tri *upim.ExploreTriage) []*upim.ResultTable {
	tabs := []*upim.ResultTable{x.SummaryTable()}
	if tri != nil {
		tabs = append(tabs, x.TriageTable(tri))
	}
	return append(tabs, x.ParetoTable(goals...), x.BestTable(3), x.EnergyTable(nil))
}

// digestTables is the SHA-256 of the tables' JSON renderings.
func digestTables(tabs []*upim.ResultTable) (string, error) {
	h := sha256.New()
	for _, tab := range tabs {
		if err := tab.WriteJSON(h); err != nil {
			return "", err
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// digestDir is the SHA-256 over the names and bytes of every file in dir, so
// two reports compare byte for byte.
func digestDir(dir string) (string, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return "", err
	}
	sort.Slice(ents, func(i, j int) bool { return ents[i].Name() < ents[j].Name() })
	h := sha256.New()
	for _, ent := range ents {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", ent.Name(), len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// tally folds an exploration's outcomes into r.
func tally(r *repOut, x *upim.Exploration) {
	r.attempted += len(x.Outcomes)
	for i := range x.Outcomes {
		o := &x.Outcomes[i]
		switch {
		case o.Err != nil:
			r.fail("%s %s: %v", o.Point.Benchmark, o.Point.Design, o.Err)
		case o.Result != nil:
			r.instructions += o.Result.Stats.Instructions
		}
	}
}

// explored is one finished pathfind pass: the exploration and the digest of
// the report it wrote, which stands for the tables byte for byte.
type explored struct {
	x      *upim.Exploration
	report string
}

// pathfind runs one exact-fidelity pathfind pass as the CLI does: enumerate,
// open the store, explore, extract the tables, write the report.
func (e *env) pathfind(t *tracer, root int, r *repOut, space *upim.DesignSpace, storeDir, reportDir string) (*explored, error) {
	var out explored
	if err := t.call("enumerate", root, func(int) error {
		_, err := space.Points()
		return err
	}); err != nil {
		return nil, err
	}
	// A private build cache, as a nil Cache would give, but one whose
	// counters can be read afterwards.
	cache := prim.NewBuildCache()
	err := t.call("explore", root, func(id int) error {
		store, err := upim.OpenResultStore(storeDir)
		if err != nil {
			return err
		}
		out.x, err = upim.Explore(e.ctx, space, upim.ExploreOptions{
			Parallelism: e.jobs, Store: traceStore(t, id, store), OnOutcome: t.onOutcome(), Cache: cache,
		})
		if out.x == nil || errors.Is(err, context.Canceled) {
			return err
		}
		return nil // per-point failures are tallied, not fatal
	})
	if err != nil {
		return nil, err
	}
	tally(r, out.x)
	r.count("prim.cache_builds", float64(cache.Stats().Builds))
	var tabs []*upim.ResultTable
	if err := t.call("tables", root, func(int) error {
		tabs = pathfindTables(out.x, nil)
		return nil
	}); err != nil {
		return nil, err
	}
	if err := t.call("write_report", root, func(int) error {
		return upim.WriteReport(reportDir, tabs)
	}); err != nil {
		return nil, err
	}
	err = t.call("check", root, func(int) error {
		out.report, err = digestDir(reportDir)
		return err
	})
	return &out, err
}

// --- 1. figures_tiny --------------------------------------------------------

type figuresInst struct {
	e   *env
	ids []string
}

func setupFigures(e *env) (instance, error) {
	ids := e.sz.figures
	if ids == nil {
		for _, x := range upim.Experiments() {
			ids = append(ids, x.ID)
		}
	}
	return &figuresInst{e, ids}, nil
}

func (f *figuresInst) rep(t *tracer, root int) (repOut, error) {
	var r repOut
	h := sha256.New()
	opts := upim.ExperimentOptions{Scale: upim.ScaleTiny, Parallelism: f.e.jobs}
	for _, id := range f.ids {
		r.attempted++
		var tab *upim.ResultTable
		err := t.call("experiment", root, func(int) (err error) {
			tab, err = upim.RunExperimentContext(f.e.ctx, id, opts)
			return err
		})
		if errors.Is(err, context.Canceled) {
			return r, err
		}
		if err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		if err := t.call("check", root, func(int) error {
			if id == "validation" {
				for i := range tab.Rows {
					r.instructions += uint64(tab.Cell(i, "instructions").Num)
				}
			}
			if err := tab.WriteJSON(h); err != nil {
				return err
			}
			return upim.CheckArtifact(tab, 1e-12)
		}); err != nil {
			r.fail("%s: %v", id, err)
			continue
		}
		r.work++
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	return r, nil
}

// --- 2. pathfind_cold -------------------------------------------------------

type coldInst struct {
	e     *env
	space *upim.DesignSpace
}

func setupCold(e *env) (instance, error) {
	space, err := e.space(e.sz.coldBench, e.sz.axes)
	return &coldInst{e, space}, err
}

func (c *coldInst) rep(t *tracer, root int) (repOut, error) {
	var r repOut
	dir, err := c.e.mkdir("cold")
	if err != nil {
		return r, err
	}
	r.scratch = dir
	p, err := c.e.pathfind(t, root, &r, c.space, filepath.Join(dir, "store"), filepath.Join(dir, "report"))
	if err != nil {
		return r, err
	}
	if p.x.Hits != 0 {
		r.fail("cold pass over a fresh store reported %d hits", p.x.Hits)
	}
	r.work = p.x.Simulated
	r.digest = p.report
	return r, nil
}

// --- 3. pathfind_resume -----------------------------------------------------

type resumeInst struct {
	e     *env
	space *upim.DesignSpace
	// store is the populated store directory; report is where every pass
	// rewrites its report; want is the cold pass's report digest.
	store, report string
	want          string
}

func setupResume(e *env) (instance, error) {
	space, err := e.space(e.sz.coldBench, e.sz.axes)
	if err != nil {
		return nil, err
	}
	dir, err := e.mkdir("resume")
	if err != nil {
		return nil, err
	}
	in := &resumeInst{e: e, space: space, store: filepath.Join(dir, "store"), report: filepath.Join(dir, "report")}
	var r repOut
	p, err := e.pathfind(nil, -1, &r, space, in.store, in.report)
	if err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("populating the store: %v", r.fails)
	}
	in.want = p.report
	return in, nil
}

func (in *resumeInst) rep(t *tracer, root int) (repOut, error) {
	var r repOut
	for pass := 0; pass < in.e.sz.resumePasses; pass++ {
		r.instructions = 0 // the same stored results every pass
		p, err := in.e.pathfind(t, root, &r, in.space, in.store, in.report)
		if err != nil {
			return r, err
		}
		if p.x.Simulated != 0 || p.x.Hits != len(p.x.Outcomes) {
			r.fail("resumed pass simulated %d points and hit %d of %d", p.x.Simulated, p.x.Hits, len(p.x.Outcomes))
		}
		if p.report != in.want {
			r.fail("resumed report differs from the cold one (%s vs %s)", p.report[:12], in.want[:12])
		}
		r.work += p.x.Hits
		r.digest = p.report
	}
	return r, nil
}

// --- 4. coord_http ----------------------------------------------------------

type coordInst struct {
	e     *env
	space *upim.DesignSpace
	// want is the report digest of a local single-process run of the space,
	// localCold the wall-clock of that run.
	want      string
	localCold time.Duration
}

func setupCoord(e *env) (instance, error) {
	space, err := e.space(e.sz.coordBench, e.sz.axes)
	if err != nil {
		return nil, err
	}
	dir, err := e.mkdir("coordref")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var r repOut
	start := time.Now()
	p, err := e.pathfind(nil, -1, &r, space, filepath.Join(dir, "store"), filepath.Join(dir, "report"))
	if err != nil {
		return nil, err
	}
	if r.failed > 0 {
		return nil, fmt.Errorf("local reference run: %v", r.fails)
	}
	return &coordInst{e: e, space: space, want: p.report, localCold: time.Since(start)}, nil
}

func (c *coordInst) rep(t *tracer, root int) (repOut, error) {
	var r repOut
	e := c.e
	dir, err := e.mkdir("coord")
	if err != nil {
		return r, err
	}
	r.scratch = dir
	storeDir := filepath.Join(dir, "store")
	start := time.Now()

	// The coordinator's log serialises its writers, and it is read back only
	// after the workers and the server have stopped.
	var events bytes.Buffer
	workID := t.begin("work", root)
	store, err := upim.OpenResultStore(storeDir)
	if err != nil {
		return r, err
	}
	handler, handle, err := upim.ServeCoordinator(c.space, store, 0,
		upim.CoordinatorOptions{ShardSize: e.sz.shardSize, TTL: e.sz.leaseTTL}, &events)
	if err != nil {
		return r, err
	}
	stop, url, err := serveLoopback(tracedHandler(t, workID, handler))
	if err != nil {
		return r, err
	}
	// One worker per job, each on a single connection shared by its lease and
	// store clients: never more connections than -jobs.
	errs := make([]error, e.jobs)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client, closeConn := oneConnection()
			defer closeConn()
			opts := upim.WorkOptions{Connect: url, Name: fmt.Sprintf("w%d", i)}
			opts.Client.Client = client
			errs[i] = upim.Work(e.ctx, opts)
		}()
	}
	wg.Wait()
	stop() // workers are done; nothing is in flight
	t.end(workID)
	workWall := time.Since(start)
	for i, err := range errs {
		if errors.Is(err, context.Canceled) {
			return r, err
		}
		if err != nil {
			r.fail("worker w%d: %v", i, err)
		}
	}
	if !handle.Done() {
		r.fail("workers returned with shards left: %+v", handle.Status())
	}

	// The single-process merge pass over the store the workers filled.
	mergeID := t.begin("merge", root)
	p, err := e.pathfind(t, mergeID, &r, c.space, storeDir, filepath.Join(dir, "report"))
	t.end(mergeID)
	if err != nil {
		return r, err
	}
	if p.x.Simulated != 0 {
		r.fail("merge pass simulated %d points the workers should have stored", p.x.Simulated)
	}
	if p.report != c.want {
		r.fail("coordinated report differs from the local run's (%s vs %s)", p.report[:12], c.want[:12])
	}
	r.work = len(p.x.Outcomes)
	r.digest = p.report
	c.layerCounts(&r, &events, workWall, time.Since(start), p.x.Simulated)
	return r, nil
}

// layerCounts reads the coordinator's JSONL event log back: leases granted,
// leases reclaimed, and the share of the work phase the workers held no lease.
func (c *coordInst) layerCounts(r *repOut, events *bytes.Buffer, workWall, repWall time.Duration, mergeSimulated int) {
	evs, err := upim.ParseCoordEvents(events)
	if err != nil {
		r.fail("coordinator event log: %v", err)
		return
	}
	var leases, reclaims float64
	var held time.Duration
	granted := map[string]time.Time{}
	for _, ev := range evs {
		switch ev.Type {
		case "lease_grant":
			leases++
			granted[ev.Lease] = ev.Time
		case "lease_reclaim":
			reclaims++
		case "lease_complete":
			if g, ok := granted[ev.Lease]; ok {
				held += ev.Time.Sub(g)
			}
		}
	}
	r.count("coord.leases", leases)
	r.count("coord.reclaims", reclaims)
	r.count("coord.merge_simulated", float64(mergeSimulated))
	r.count("coord.worker_idle_share", 1-float64(held)/(float64(workWall)*float64(c.e.jobs)))
	r.count("coord.overhead_ratio", float64(repWall)/float64(c.localCold))
}

// serveLoopback serves h on 127.0.0.1:0 until stop is called.
func serveLoopback(h http.Handler) (stop func(), url string, err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = srv.Serve(ln) // http.ErrServerClosed after stop
	}()
	return func() { _ = srv.Close(); <-done }, "http://" + ln.Addr().String(), nil
}

// oneConnection is an HTTP client that keeps a single connection to its
// host; closeConn drops it.
func oneConnection() (client *http.Client, closeConn func()) {
	tr := &http.Transport{MaxConnsPerHost: 1}
	return &http.Client{Transport: tr}, tr.CloseIdleConnections
}

// --- 5. tiered_triage -------------------------------------------------------

type tieredInst struct {
	e     *env
	space *upim.DesignSpace
	topts upim.TieredExploreOptions
}

func setupTiered(e *env) (instance, error) {
	space, err := e.space(e.sz.tieredBench, e.sz.tieredAxes)
	if err != nil {
		return nil, err
	}
	est, err := upim.NewEstimator(nil, nil) // the committed calibration
	if err != nil {
		return nil, err
	}
	return &tieredInst{e, space, upim.TieredExploreOptions{Estimator: est, Band: e.sz.band, Goals: goals}}, nil
}

func (ti *tieredInst) rep(t *tracer, root int) (repOut, error) {
	var r repOut
	e := ti.e
	dir, err := e.mkdir("tiered")
	if err != nil {
		return r, err
	}
	r.scratch = dir
	var digests [2]string
	var tri *upim.ExploreTriage
	for pass := range digests {
		var x *upim.Exploration
		err := t.call("explore_tiered", root, func(id int) error {
			store, err := upim.OpenResultStore(dir)
			if err != nil {
				return err
			}
			x, tri, err = upim.ExploreTiered(e.ctx, ti.space, upim.ExploreOptions{
				Parallelism: e.jobs, Store: traceStore(t, id, store), OnOutcome: t.onOutcome(),
			}, ti.topts)
			if x == nil || errors.Is(err, context.Canceled) {
				return err
			}
			return nil
		})
		if err != nil {
			return r, err
		}
		if pass == 0 {
			tally(&r, x)
			r.work = len(x.Outcomes)
		} else {
			r.attempted += len(x.Outcomes)
			if x.Simulated != 0 {
				r.fail("resumed tiered pass simulated %d points", x.Simulated)
			}
		}
		if err := t.call("tables", root, func(int) error {
			digests[pass], err = digestTables(pathfindTables(x, tri))
			return err
		}); err != nil {
			return r, err
		}
	}
	if digests[0] != digests[1] {
		r.fail("resumed tiered tables differ from the first pass (%s vs %s)", digests[1][:12], digests[0][:12])
	}
	r.digest = digests[0]
	r.count("estimate.band_err_pct", 100*tri.MeanRelErr)
	return r, nil
}

// --- 6. serve_sweep ---------------------------------------------------------

type serveInst struct {
	e    *env
	opts upim.ServeOptions
	// kernelInstructions is the simulated instruction count of one profiling
	// of the tenants' kernels (ServeLoadSweep's table carries no counters).
	kernelInstructions uint64
}

func setupServe(e *env) (instance, error) {
	opts := upim.ServeOptions{
		Tenants: []upim.ServeTenant{
			{Name: "latency", Mix: []string{"VA", "GEMV"}, Weight: 3, SLOClass: "latency"},
			{Name: "batch", Mix: []string{"BS", "RED"}, Weight: 1, SLOClass: "batch"},
		},
		Groups: 2, MaxBatch: 4, Requests: e.sz.serveRequests,
		Seed: e.seed, Scale: upim.ScaleTiny, Parallelism: e.jobs,
	}
	// Serve profiles each kernel on one DPU under Table I with the MMU on.
	cfg := upim.DefaultConfig()
	cfg.MMU.Enable, cfg.MMU.Prefault = true, false
	runner, err := upim.NewRunner(upim.WithConfig(cfg), upim.WithScale(upim.ScaleTiny), upim.WithParallelism(e.jobs))
	if err != nil {
		return nil, err
	}
	results, err := runner.RunSuite(e.ctx, "VA", "GEMV", "BS", "RED")
	if err != nil {
		return nil, err
	}
	in := &serveInst{e: e, opts: opts}
	for _, res := range results {
		in.kernelInstructions += res.Stats.Instructions
	}
	return in, nil
}

func (s *serveInst) rep(t *tracer, root int) (repOut, error) {
	var r repOut
	sz := s.e.sz
	cells := len(sz.servePolicies) * len(sz.serveLoads)
	requests := cells * len(s.opts.Tenants) * sz.serveRequests
	r.attempted = requests
	r.instructions = uint64(cells) * s.kernelInstructions
	if t == nil {
		tab, err := upim.ServeLoadSweep(s.e.ctx, s.opts, sz.servePolicies, sz.serveLoads)
		if err != nil {
			return r, err
		}
		if r.digest, err = digestTables([]*upim.ResultTable{tab}); err != nil {
			return r, err
		}
		if want := cells * len(s.opts.Tenants); len(tab.Rows) != want {
			r.fail("load sweep table has %d rows, want %d", len(tab.Rows), want)
		}
		r.work = requests
		return r, nil
	}
	// Traced: ServeLoadSweep builds its policies from names, so the policy
	// decorator goes in through Serve, one cell at a time as the sweep does.
	var dropped int
	for _, name := range sz.servePolicies {
		for _, load := range sz.serveLoads {
			err := t.call("serve_cell", root, func(int) error {
				policy, err := upim.NewSchedulingPolicy(name, s.opts.Tenants)
				if err != nil {
					return err
				}
				o := s.opts
				o.Load, o.Policy = load, tracedPolicy{policy, t}
				res, err := upim.Serve(s.e.ctx, o)
				if err != nil {
					return err
				}
				for i := range res.Records {
					rec := &res.Records[i]
					switch {
					case rec.Dropped:
						dropped++
					case rec.Finish < rec.Start || rec.Start < rec.Arrival:
						r.fail("request %d neither completed nor dropped", rec.ID)
					}
				}
				r.work += len(res.Records)
				return nil
			})
			if err != nil {
				return r, err
			}
		}
	}
	if r.work != requests {
		r.fail("served %d requests, want %d", r.work, requests)
	}
	r.count("serve.dropped", float64(dropped))
	return r, nil
}
