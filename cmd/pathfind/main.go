// Command pathfind is the design-space exploration front end — the paper's
// pathfinding methodology as a tool. It sweeps typed design axes over a set
// of benchmarks, runs every feasible point concurrently, and extracts
// Pareto frontiers (-goals), ranked best configurations, and per-point energy
// breakdowns (-energy, parameterized by a -profile TechProfile JSON). The
// p99 goal scores each point as a server: its tail latency under a canned
// two-tenant open-loop workload, scheduled by the point's policy axis level
// (fifo without one) — so QoS is a pathfinding objective and the scheduler
// a design dimension:
//
//	pathfind -bench VA -axes "link=1,2,4;policy=fifo,wfq,slo" -pareto -goals p99,cost
//
// With -store, finished points persist in a content-addressed result store:
// interrupt an exploration (Ctrl-C) and rerun the same command to resume
// exactly where it stopped — previously finished points are store hits and
// are never simulated again, even across different explorations that merely
// share points.
//
// With -tier2, the exploration runs in two fidelity tiers: a calibrated
// analytical estimator (internal/estimate) predicts every feasible point in
// microseconds, and only the estimated Pareto band over the active goals —
// widened by the -band slack — is simulated cycle-exactly. Points outside
// the band resolve at estimate fidelity (tagged in every table and in the
// store). -plan prints the feasible point count, the axis breakdown, and
// (with -tier2) the predicted estimate/simulate split, then exits without
// simulating anything.
//
// With -coordinator, the exploration runs as a sharded multi-worker system:
// -workers N workers drain leased shards of the point enumeration through
// the shared store, live progress streams to stderr (and, with -events, to a
// machine-readable JSONL log), and dead workers lose their leases so their
// shards re-queue. The artifacts are byte-identical to an uncoordinated run.
// -store also accepts an http(s):// URL pointing at a store server.
//
// The `serve` subcommand serves a result store — and, given space flags, a
// lease-protocol coordinator over that space — over HTTP; `work -connect URL`
// runs one remote worker process against it. Together they spread one
// exploration across processes and machines:
//
//	pathfind serve -addr :7070 -store ./pfstore -bench VA,BS -scale tiny
//	pathfind work -connect http://host:7070 -name w0   # on each machine
//
// The `calibrate` subcommand refits the estimator's calibration artifact
// against the cycle-exact simulator and rewrites (or, with -check, verifies)
// internal/estimate/calibration/default.json.
//
// Usage:
//
//	pathfind -bench VA,BS -axes "tasklets=1,4,16;ilp=base,D,DRSF;link=1,2,4" \
//	         -scale tiny -store ./pfstore -pareto -goals energy,cost -energy -out ./report
//	pathfind -tier2 -band 0.25 -bench VA -axes "tasklets=1,4,16;freq=350,700;link=1,2,4" -pareto
//	pathfind -coordinator -workers 4 -store ./pfstore -events events.jsonl -bench VA -pareto
//	pathfind calibrate -check
//
// Axis grammar: semicolon-separated "name=v1,v2,..." (explore.ParseAxes;
// `pathfind -h` lists the axes and goals). Infeasible combinations (e.g.
// SIMT on a benchmark without a SIMT kernel, or a graph benchmark on the
// bank-level MAC backend) are constrained out. The canonical
// cross-architecture frontier run is regression-checked against committed
// references:
//
//	pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny \
//	         -pareto -goals time,energy,cost -energy -check
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"
	"time"

	"upim"
	"upim/internal/cli"
	"upim/internal/explore"
)

func main() { os.Exit(run(os.Args[1:])) }

var subcommands = map[string]cli.Command{"calibrate": calibrate, "serve": serve, "work": work}

func run(args []string) int {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			return cli.Main("pathfind "+args[0], args[1:], sub)
		}
	}
	return cli.Main("pathfind", args, pathfind)
}

// axisVocab and goalVocab are the -axes and -goals vocabularies.
var axisVocab, goalVocab = explore.Vocabulary()

// spaceFlags are the flags that name a design space, shared by the
// exploration and by `pathfind serve`, which coordinates one.
type spaceFlags struct {
	bench, axes *string
	dpus        *int
	sim         cli.Sim // the caller registers it: -scale alone for the server
}

func (s *spaceFlags) register(fs *flag.FlagSet) {
	s.bench = fs.String("bench", "", "comma-separated benchmark subset (default: all 16)")
	s.axes = fs.String("axes", "tasklets=1,4,16;ilp=base,DRSF;link=1,2,4", "design axes: \"name=v1,v2;...\" over "+axisVocab)
	s.dpus = fs.Int("dpus", 1, "base DPU count (a dpus axis overrides it)")
}

// space builds the design space the flags name.
func (s *spaceFlags) space() (*upim.DesignSpace, error) {
	axes, err := upim.ParseAxes(*s.axes)
	if err != nil {
		return nil, cli.Usage(err)
	}
	benchmarks := upim.Benchmarks()
	if *s.bench != "" {
		benchmarks = strings.Split(*s.bench, ",")
	}
	space := upim.NewDesignSpace(benchmarks, axes...)
	space.Scale = s.sim.Scale
	space.DPUs = *s.dpus
	return space, nil
}

// openEvents opens a JSONL events log for appending. An empty path is no
// log: a nil writer and a no-op close.
func openEvents(path string) (io.Writer, func(), error) {
	if path == "" {
		return nil, func() {}, nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, err
	}
	return f, func() { f.Close() }, nil
}

func pathfind(fs *flag.FlagSet) func(context.Context) error {
	var (
		sp        spaceFlags
		rep       cli.Report
		storeDir  = fs.String("store", "", "persistent result store directory (enables resume; empty = no persistence)")
		resume    = fs.Bool("resume", true, "serve previously finished points from the store; -resume=false re-simulates (and refreshes) every point")
		pareto    = fs.Bool("pareto", false, "print the per-benchmark Pareto frontier (see -goals) and ranked best configs")
		goals     = fs.String("goals", "time,cost", "comma-separated Pareto objectives for -pareto: "+goalVocab)
		profile   = fs.String("profile", "", "energy TechProfile JSON overriding the committed default (used by the energy/edp goals and -energy)")
		energyT   = fs.Bool("energy", false, "print the per-point energy breakdown table")
		top       = fs.Int("top", 3, "designs per benchmark in the best-config ranking")
		verbose   = fs.Bool("v", false, "log every point as it finishes (a -coordinator run logs them with -events)")
		tier2     = fs.Bool("tier2", false, "two-tier fidelity: estimate every point analytically, simulate only the estimated Pareto band over the active -goals")
		band      = fs.Float64("band", 0.25, "ε slack of the tier2 band: points within this relative margin of the estimated frontier are simulated too")
		calib     = fs.String("calibration", "", "calibration profile JSON for -tier2 (default: the committed artifact)")
		plan      = fs.Bool("plan", false, "print the feasible point count, axis breakdown and (with -tier2) the predicted estimate/simulate split, then exit without simulating")
		coordMode = fs.Bool("coordinator", false, "coordinated exploration: shard the space into leased work units drained by -workers workers through the shared -store")
		workers   = fs.Int("workers", 4, "worker count for -coordinator")
		events    = fs.String("events", "", "append the machine-readable JSONL coordination events log to this file (-coordinator only)")
	)
	sp.register(fs)
	sp.sim.Register(fs)
	rep.Register(fs)
	return func(ctx context.Context) error {
		var prof *upim.TechProfile // nil = the committed default profile
		if *profile != "" {
			var err error
			if prof, err = upim.LoadTechProfile(*profile); err != nil {
				return cli.Usage(err)
			}
		}
		goalList, err := upim.ParseGoals(*goals, prof)
		if err != nil {
			return cli.Usage(err)
		}
		// Goals are only evaluated by the -pareto frontier and the -tier2 band,
		// so an explicit -goals without either would be silently ignored. The
		// same applies to the tier2-only and coordinator-only knobs.
		if cli.IsSet(fs, "goals") && !*pareto && !*tier2 {
			return cli.Usagef("-goals only affects the -pareto frontier and the -tier2 band; add one of them to use it")
		}
		if (cli.IsSet(fs, "band") || *calib != "") && !*tier2 {
			return cli.Usagef("-band and -calibration only affect -tier2 triage; add -tier2 to use them")
		}
		if cli.IsSet(fs, "workers") && !*coordMode {
			return cli.Usagef("-workers sets the -coordinator worker count; add -coordinator to use it")
		}
		if *events != "" && !*coordMode {
			return cli.Usagef("-events records the coordination events log; add -coordinator to use it")
		}
		if *verbose && *coordMode {
			return cli.Usagef("-v logs points of an uncoordinated run; a coordinated run logs them with -events")
		}
		if err := rep.Validate(); err != nil {
			return err
		}
		// Likewise a profile only matters to evaluated energy/edp goals and the
		// -energy table; loading one that nothing reads would silently produce
		// profile-independent reports the user believes were recalibrated.
		// (The guard above means any energy/edp goal left in goalList is one
		// -pareto will actually evaluate.)
		usesProfile := func(g upim.ExploreGoal) bool { return g.UsesProfile }
		if prof != nil && !*energyT && !slices.ContainsFunc(goalList, usesProfile) {
			return cli.Usagef("-profile only affects the energy/edp goals under -pareto and the -energy table; add one of them to use %s", prof.Name)
		}

		space, err := sp.space()
		if err != nil {
			return err
		}
		pts, err := space.Points()
		if err != nil {
			return cli.Usage(err)
		}
		if len(pts) == 0 {
			return cli.Usagef("every point of the space is infeasible; relax the axes or benchmarks")
		}

		var estimator *upim.Estimator
		if *tier2 {
			var cal *upim.CalibrationProfile // nil = the committed default
			if *calib != "" {
				if cal, err = upim.LoadCalibration(*calib); err != nil {
					return cli.Usage(err)
				}
			}
			if estimator, err = upim.NewEstimator(cal, prof); err != nil {
				return cli.Usage(err)
			}
		}
		topts := upim.TieredExploreOptions{Estimator: estimator, Band: *band, Goals: goalList}

		if *plan {
			fmt.Printf("pathfind plan: %d feasible points (%d raw) over %d benchmarks at scale %s\n",
				len(pts), space.Size(), len(space.Benchmarks), sp.sim.Scale)
			for _, a := range space.Axes {
				labels := make([]string, len(a.Levels))
				for i, l := range a.Levels {
					labels[i] = l.Label
				}
				fmt.Printf("  axis %-9s %d levels: %s\n", a.Name, len(a.Levels), strings.Join(labels, ", "))
			}
			if *tier2 {
				tri, err := upim.PlanTieredExploration(space, topts)
				if err != nil {
					return cli.Usage(err)
				}
				fmt.Printf("  tier2: %d estimable, %d unestimable; band %d (%.1f%% of feasible) would simulate, %d resolve by estimate\n",
					tri.Estimable, tri.Unestimable, tri.Band, 100*float64(tri.Band)/float64(tri.Feasible), tri.EstimateOnly)
			}
			return nil
		}
		fmt.Fprintf(os.Stderr, "pathfind: exploring %d feasible points (%d raw) over %d benchmarks\n",
			len(pts), space.Size(), len(space.Benchmarks))

		opts := upim.ExploreOptions{Parallelism: sp.sim.Jobs, Refresh: !*resume}
		var store upim.StoreBackend
		if *storeDir != "" {
			if strings.HasPrefix(*storeDir, "http://") || strings.HasPrefix(*storeDir, "https://") {
				store, err = upim.DialResultStore(*storeDir, upim.HTTPResultStoreOptions{})
			} else {
				store, err = upim.OpenResultStore(*storeDir)
			}
			if err != nil {
				return err
			}
			opts.Store = store
		}
		if *coordMode && store == nil {
			return cli.Usagef("-coordinator requires -store (workers and the merge share results through it)")
		}
		if *coordMode && !*resume {
			return cli.Usagef("-resume=false is incompatible with -coordinator (workers depend on serving each other's finished points)")
		}
		if *verbose {
			opts.OnOutcome = func(o upim.ExploreOutcome) {
				status := "simulated"
				switch {
				case o.Cached:
					status = "cached"
				case o.Err != nil:
					status = "FAILED: " + o.Err.Error()
				case o.Fidelity == upim.FidelityEstimate:
					status = "estimated"
				}
				fmt.Fprintf(os.Stderr, "pathfind: %s %s: %s\n", o.Point.Benchmark, o.Point.Design, status)
			}
		}

		var x *upim.Exploration
		var tri *upim.ExploreTriage
		switch {
		case *coordMode:
			copts := upim.CoordOptions{
				Workers:     *workers,
				Parallelism: sp.sim.Jobs,
				Store:       store,
				OnProgress:  progressPrinter(),
			}
			if *tier2 {
				copts.Tiered = &topts
			}
			var closeEvents func()
			if copts.Events, closeEvents, err = openEvents(*events); err != nil {
				return err
			}
			defer closeEvents()
			x, tri, err = upim.CoordinatedExplore(ctx, space, copts)
		case *tier2:
			x, tri, err = upim.ExploreTiered(ctx, space, opts, topts)
		default:
			x, err = upim.Explore(ctx, space, opts)
		}
		if x == nil {
			return err
		}
		if errors.Is(err, context.Canceled) {
			if store == nil {
				return fmt.Errorf("interrupted after %d simulated points", x.Simulated)
			}
			return fmt.Errorf("interrupted after %d simulated points — rerun with the same -store %s to resume", x.Simulated, *storeDir)
		}

		tables := []*upim.ResultTable{x.SummaryTable()}
		if tri != nil {
			tables = append(tables, x.TriageTable(tri))
		}
		if *pareto {
			tables = append(tables, x.ParetoTable(goalList...), x.BestTable(*top))
		}
		if *energyT {
			tables = append(tables, x.EnergyTable(prof))
		}
		for _, tab := range tables {
			tab.Fprint(os.Stdout)
		}
		if err := rep.Finish("pathfind", tables); err != nil {
			return err
		}

		fmt.Fprintf(os.Stderr, "pathfind: %d points: %d cached, %d simulated, %d failed\n",
			len(x.Outcomes), x.Hits, x.Simulated, x.Failed)
		if tri != nil {
			fmt.Fprintf(os.Stderr, "pathfind: tier2: %d resolved by estimate, band %d/%d feasible (max rel err on band %.2f%%)\n",
				x.Estimated, tri.Band, tri.Feasible, tri.MaxRelErr*100)
		}
		if store != nil {
			if n, cerr := store.Count(); cerr != nil {
				fmt.Fprintf(os.Stderr, "pathfind: store %s: %v\n", *storeDir, cerr)
			} else {
				fmt.Fprintf(os.Stderr, "pathfind: store %s now holds %d points\n", *storeDir, n)
			}
			// An HTTP client sees a corrupt entry only as a miss; the server's
			// store counts it. A server that cannot answer leaves nothing to
			// warn of; Count above reports an unreachable one.
			st := store.Stats()
			if hs, ok := store.(*upim.HTTPResultStore); ok {
				st, _ = hs.ServerStats()
			}
			if st.Corrupt > 0 {
				fmt.Fprintf(os.Stderr, "pathfind: store: %d corrupt entries degraded to re-simulation — the store repaired them, but check the directory's health\n", st.Corrupt)
			}
		}
		return err
	}
}

// progressPrinter streams coordinated-exploration progress to stderr: one
// line per snapshot, throttled to twice a second so N workers cannot flood
// the terminal, always printing the final (all-done) snapshot.
func progressPrinter() func(upim.CoordProgress) {
	var last time.Time
	return func(p upim.CoordProgress) {
		done := p.Done == p.Total && p.Coordination.AllDone
		if !done && time.Since(last) < 500*time.Millisecond {
			return
		}
		last = time.Now()
		fmt.Fprintln(os.Stderr, "pathfind:", p)
	}
}
