// Command pathfind is the design-space exploration front end — the paper's
// pathfinding methodology as a tool. It sweeps typed design axes (tasklets,
// DPUs, frequency, MRAM-link scale, the ILP feature ladder, memory-hierarchy
// mode) over a set of benchmarks, runs every feasible point concurrently,
// and extracts Pareto frontiers (-goals: any subset of time, kernel, cost,
// energy, edp, p99), ranked best configurations, and per-point energy
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
// Axis grammar: semicolon-separated "name=v1,v2,..." with axes arch (upmem,
// hbm-pim — which machine description and backend simulates the point),
// tasklets, dpus, freq (MHz), link (bandwidth multiplier), ilp (subsets of
// DRSF or "base"), mode (scratchpad, cache, simt), policy (fifo, wfq, slo —
// host software, scored by the p99 goal, free on the simulated point so all
// its levels share one store entry). Infeasible combinations (e.g. SIMT on a
// benchmark without a SIMT kernel, or a graph benchmark on the bank-level
// MAC backend) are constrained out. The canonical cross-architecture
// frontier run is regression-checked against committed references:
//
//	pathfind -bench GEMV,VA -axes "arch=upmem,hbm-pim;dpus=1,2" -scale tiny \
//	         -pareto -goals time,energy,cost -energy -check
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"upim"
	"upim/internal/cli"
)

const defaultAxes = "tasklets=1,4,16;ilp=base,DRSF;link=1,2,4"

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "calibrate":
			os.Exit(runCalibrate(os.Args[2:]))
		case "serve":
			os.Exit(runServe(os.Args[2:]))
		case "work":
			os.Exit(runWork(os.Args[2:]))
		}
	}
	os.Exit(run())
}

func run() int {
	var (
		bench     = flag.String("bench", "", "comma-separated benchmark subset (default: all 16)")
		axesSpec  = flag.String("axes", defaultAxes, "design axes: \"name=v1,v2;...\" over tasklets, dpus, freq, link, ilp, mode, policy")
		scale     = flag.String("scale", "tiny", "dataset scale: tiny, small or paper")
		dpus      = flag.Int("dpus", 1, "base DPU count (a dpus axis overrides it)")
		storeDir  = flag.String("store", "", "persistent result store directory (enables resume; empty = no persistence)")
		resume    = flag.Bool("resume", true, "serve previously finished points from the store; -resume=false re-simulates (and refreshes) every point")
		pareto    = flag.Bool("pareto", false, "print the per-benchmark Pareto frontier (see -goals) and ranked best configs")
		goals     = flag.String("goals", "time,cost", "comma-separated Pareto objectives for -pareto: time, kernel, cost, energy, edp, p99")
		profile   = flag.String("profile", "", "energy TechProfile JSON overriding the committed default (used by the energy/edp goals and -energy)")
		energyT   = flag.Bool("energy", false, "print the per-point energy breakdown table")
		top       = flag.Int("top", 3, "designs per benchmark in the best-config ranking")
		jobs      = flag.Int("jobs", 0, "concurrent simulation points (0 = GOMAXPROCS)")
		out       = flag.String("out", "", "write a browsable report (CSV+JSON+Markdown+index.md) into this directory")
		verbose   = flag.Bool("v", false, "log every point as it finishes")
		tier2     = flag.Bool("tier2", false, "two-tier fidelity: estimate every point analytically, simulate only the estimated Pareto band over the active -goals")
		band      = flag.Float64("band", 0.25, "ε slack of the tier2 band: points within this relative margin of the estimated frontier are simulated too")
		calib     = flag.String("calibration", "", "calibration profile JSON for -tier2 (default: the committed artifact)")
		plan      = flag.Bool("plan", false, "print the feasible point count, axis breakdown and (with -tier2) the predicted estimate/simulate split, then exit without simulating")
		coordMode = flag.Bool("coordinator", false, "coordinated exploration: shard the space into leased work units drained by -workers workers through the shared -store")
		workers   = flag.Int("workers", 4, "worker count for -coordinator")
		events    = flag.String("events", "", "append the machine-readable JSONL coordination events log to this file (-coordinator only)")
		check     = flag.Bool("check", false, "validate every emitted table against the committed reference artifacts (the cross-architecture regression oracle)")
		eps       = flag.Float64("eps", 0, "relative tolerance for -check (<= 0 selects the default)")
		writeref  = flag.String("writeref", "", "write reference JSON artifacts for the emitted tables into this directory (maintainers only)")
	)
	flag.Parse()

	sc, err := upim.ParseScale(*scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind:", err)
		return 2
	}
	axes, err := upim.ParseAxes(*axesSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind:", err)
		return 2
	}
	var prof *upim.TechProfile // nil = the committed default profile
	if *profile != "" {
		if prof, err = upim.LoadTechProfile(*profile); err != nil {
			fmt.Fprintln(os.Stderr, "pathfind:", err)
			return 2
		}
	}
	goalList, err := upim.ParseGoals(*goals, prof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind:", err)
		return 2
	}
	// Goals are only evaluated by the -pareto frontier and the -tier2 band,
	// so an explicit -goals without either would be silently ignored. The
	// same applies to the tier2-only knobs.
	goalsSet, bandSet := false, false
	flag.Visit(func(f *flag.Flag) {
		goalsSet = goalsSet || f.Name == "goals"
		bandSet = bandSet || f.Name == "band"
	})
	if goalsSet && !*pareto && !*tier2 {
		fmt.Fprintln(os.Stderr, "pathfind: -goals only affects the -pareto frontier and the -tier2 band; add one of them to use it")
		return 2
	}
	if (bandSet || *calib != "") && !*tier2 {
		fmt.Fprintln(os.Stderr, "pathfind: -band and -calibration only affect -tier2 triage; add -tier2 to use them")
		return 2
	}
	if *eps != 0 && !*check {
		fmt.Fprintln(os.Stderr, "pathfind: -eps sets the -check tolerance; add -check to use it")
		return 2
	}
	// Likewise a profile only matters to evaluated energy/edp goals and the
	// -energy table; loading one that nothing reads would silently produce
	// profile-independent reports the user believes were recalibrated.
	// (The guard above means any energy/edp goal left in goalList is one
	// -pareto will actually evaluate.)
	if prof != nil && !*energyT {
		usesProfile := false
		for _, g := range goalList {
			if g.UsesProfile {
				usesProfile = true
				break
			}
		}
		if !usesProfile {
			fmt.Fprintf(os.Stderr, "pathfind: -profile only affects the energy/edp goals under -pareto and the -energy table; add one of them to use %s\n", prof.Name)
			return 2
		}
	}
	benchmarks := upim.Benchmarks()
	if *bench != "" {
		benchmarks = strings.Split(*bench, ",")
	}

	space := upim.NewDesignSpace(benchmarks, axes...)
	space.Scale = sc
	space.DPUs = *dpus
	pts, err := space.Points()
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind:", err)
		return 2
	}
	if len(pts) == 0 {
		fmt.Fprintln(os.Stderr, "pathfind: every point of the space is infeasible; relax the axes or benchmarks")
		return 2
	}

	var estimator *upim.Estimator
	if *tier2 {
		var cal *upim.CalibrationProfile // nil = the committed default
		if *calib != "" {
			if cal, err = upim.LoadCalibration(*calib); err != nil {
				fmt.Fprintln(os.Stderr, "pathfind:", err)
				return 2
			}
		}
		if estimator, err = upim.NewEstimator(cal, prof); err != nil {
			fmt.Fprintln(os.Stderr, "pathfind:", err)
			return 2
		}
	}
	topts := upim.TieredExploreOptions{Estimator: estimator, Band: *band, Goals: goalList}

	if *plan {
		fmt.Printf("pathfind plan: %d feasible points (%d raw) over %d benchmarks at scale %s\n",
			len(pts), space.Size(), len(benchmarks), *scale)
		for _, a := range axes {
			labels := make([]string, len(a.Levels))
			for i, l := range a.Levels {
				labels[i] = l.Label
			}
			fmt.Printf("  axis %-9s %d levels: %s\n", a.Name, len(a.Levels), strings.Join(labels, ", "))
		}
		if *tier2 {
			tri, terr := upim.PlanTieredExploration(space, topts)
			if terr != nil {
				fmt.Fprintln(os.Stderr, "pathfind:", terr)
				return 2
			}
			fmt.Printf("  tier2: %d estimable, %d unestimable; band %d (%.1f%% of feasible) would simulate, %d resolve by estimate\n",
				tri.Estimable, tri.Unestimable, tri.Band, 100*float64(tri.Band)/float64(tri.Feasible), tri.EstimateOnly)
		}
		return 0
	}
	fmt.Fprintf(os.Stderr, "pathfind: exploring %d feasible points (%d raw) over %d benchmarks\n",
		len(pts), space.Size(), len(benchmarks))

	opts := upim.ExploreOptions{Parallelism: *jobs, Refresh: !*resume}
	var store upim.StoreBackend
	if *storeDir != "" {
		if strings.HasPrefix(*storeDir, "http://") || strings.HasPrefix(*storeDir, "https://") {
			store, err = upim.DialResultStore(*storeDir, upim.HTTPResultStoreOptions{})
		} else {
			store, err = upim.OpenResultStore(*storeDir)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "pathfind:", err)
			return 1
		}
		opts.Store = store
	}
	if *coordMode && store == nil {
		fmt.Fprintln(os.Stderr, "pathfind: -coordinator requires -store (workers and the merge share results through it)")
		return 2
	}
	if *coordMode && !*resume {
		fmt.Fprintln(os.Stderr, "pathfind: -resume=false is incompatible with -coordinator (workers depend on serving each other's finished points)")
		return 2
	}
	if *events != "" && !*coordMode {
		fmt.Fprintln(os.Stderr, "pathfind: -events records the coordination events log; add -coordinator to use it")
		return 2
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

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
	defer cancel()

	var x *upim.Exploration
	var tri *upim.ExploreTriage
	switch {
	case *coordMode:
		copts := upim.CoordOptions{
			Workers:     *workers,
			Parallelism: *jobs,
			Store:       store,
			OnProgress:  progressPrinter(),
		}
		if *tier2 {
			copts.Tiered = &topts
		}
		if *events != "" {
			ef, ferr := os.OpenFile(*events, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if ferr != nil {
				fmt.Fprintln(os.Stderr, "pathfind:", ferr)
				return 1
			}
			defer ef.Close()
			copts.Events = ef
		}
		x, tri, err = upim.CoordinatedExplore(ctx, space, copts)
	case *tier2:
		x, tri, err = upim.ExploreTiered(ctx, space, opts, topts)
	default:
		x, err = upim.Explore(ctx, space, opts)
	}
	if x == nil {
		fmt.Fprintln(os.Stderr, "pathfind:", err)
		return 1
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "pathfind: interrupted after %d simulated points", x.Simulated)
		if store != nil {
			fmt.Fprintf(os.Stderr, " — rerun with the same -store %s to resume", *storeDir)
		}
		fmt.Fprintln(os.Stderr)
		return 1
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
	if code := (cli.Report{Out: *out, WriteRef: *writeref, Check: *check, Eps: *eps}).Finish("pathfind", tables); code != 0 {
		return code
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
		if st := store.Stats(); st.Corrupt > 0 {
			fmt.Fprintf(os.Stderr, "pathfind: store: %d corrupt entries degraded to re-simulation — the store repaired them, but check the directory's health\n", st.Corrupt)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pathfind:", err)
		return 1
	}
	return 0
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
