// Command benchmark is the repository's benchmark (ISSUE 12): six CLI-shaped
// workloads driven through the root upim API, six end-to-end metrics per
// workload from an untraced run, and a separate traced run whose spans,
// decorators and layer ladder give the per-layer metrics. BENCHMARK.json at
// the repository root declares every workload and metric by name; README.md
// in this directory says how to read them.
//
// One workload (what the driver runs, and what the all-workloads mode runs
// as child processes so that peak RSS and caches are per workload):
//
//	benchmark --workload NAME --seed N --seconds S --trace 0|1
//
// Every workload, untraced then traced, with a summary:
//
//	benchmark [-out results.json]
//
// Two result files against each other:
//
//	benchmark -compare A.json B.json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
)

func main() { os.Exit(run()) }

func run() int {
	var (
		jobs      = flag.Int("jobs", 2, "worker goroutines, HTTP connections and GOMAXPROCS; nproc is 2 on the reference sandbox")
		seed      = flag.Int64("seed", 1, "seed of the generated inputs: serve_sweep's arrival streams and the DRAM probe's address streams")
		seconds   = flag.Float64("seconds", 10, "how long one run measures: repetitions are made until this much time has passed")
		name      = flag.String("workload", "", "run this one workload in this process (default: every workload, each in a child process)")
		traced    = flag.Int("trace", 0, "0: the untraced run and the end-to-end metrics; 1: the traced run, the layer ladder and the per-layer metrics")
		traceFile = flag.String("tracefile", "", "with -trace 1, write the harness's spans to this file as Chrome-trace JSON")
		out       = flag.String("out", "", "write machine-readable results (per-repetition samples, min/median/max/IQR, machine details) to this file")
		compare   = flag.Bool("compare", false, "compare two -out files given as arguments: benchmark -compare A.json B.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *jobs < 1 || *seconds < 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad arguments; see -help")
		return 2
	}

	// Ctrl-C cancels every simulation and worker; the deferred clean-up below
	// then removes the stores and closes the listeners on the way out.
	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	if *name == "" {
		return runAll(ctx, *jobs, *seed, *seconds, *out)
	}
	w, err := workloadByName(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tmp, err := scratchDir("run")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	e := &env{ctx: ctx, jobs: *jobs, seed: *seed, sz: fullSize, tmp: tmp}
	var r *result
	if *traced == 1 {
		r, err = runTraced(e, w, *seconds, *traceFile)
	} else {
		r, err = runUntraced(e, w, *seconds)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	if *out != "" {
		if err := writeJSON(*out, r); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	printResult(r)
	if !r.Correct {
		return 1
	}
	return 0
}

// scratchDir makes a fresh directory for temporary stores and reports beside
// the binary — run.sh builds it into benchmark/.work, so scratch stays inside
// the checkout, the only place the driver lets the benchmark write.
func scratchDir(prefix string) (string, error) {
	self, err := os.Executable()
	if err != nil {
		return "", err
	}
	root := filepath.Join(filepath.Dir(self), "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(root, prefix)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric by name with its unit (host time unless
// the name says simulated), then the driver's one-line JSON result.
func printResult(r *result) {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	kind := "end-to-end, untraced"
	if r.Traced {
		kind = "per-layer, traced"
	}
	fmt.Printf("# %s (%s): %d repetitions, work unit %s, digest %s\n", r.Workload, kind, r.Reps, r.WorkUnit, r.Digest)
	line := map[string]map[string]any{}
	for _, n := range names {
		m := r.Metrics[n]
		spread := ""
		if m.N > 1 {
			spread = fmt.Sprintf("  (n=%d min %.6g max %.6g iqr %.6g)", m.N, m.Min, m.Max, m.IQR)
		}
		fmt.Printf("%-40s %14.6g %-8s%s\n", n, m.Median, m.Unit, spread)
		line[n] = map[string]any{"value": m.Median, "unit": m.Unit}
	}
	raw := make([]string, 0, len(r.Raw))
	for n := range r.Raw {
		raw = append(raw, n)
	}
	sort.Strings(raw)
	for _, n := range raw {
		fmt.Printf("  (%-36s %14.6g %s)\n", n, r.Raw[n].Median, r.Raw[n].Unit)
	}
	for _, f := range r.Failures {
		fmt.Println("FAILED:", f)
	}
	data, err := json.Marshal(map[string]any{
		"correct": r.Correct, "attempted": r.Attempted, "failed": r.Failed, "metrics": line,
	})
	if err != nil {
		panic(err) // plain maps of numbers and strings
	}
	fmt.Println(string(data))
}

// machineInfo is what a results file records about where it was measured.
type machineInfo struct {
	Commit    string `json:"commit"`
	GoVersion string `json:"go_version"`
	NProc     int    `json:"nproc"`
	CPU       string `json:"cpu"`
	Jobs      int    `json:"jobs"`
	Seed      int64  `json:"seed"`
}

// resultSet is a whole -out file of the all-workloads mode.
type resultSet struct {
	Machine  machineInfo `json:"machine"`
	Untraced []*result   `json:"untraced"`
	Traced   []*result   `json:"traced"`
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll runs every workload untraced and then traced, each in a child
// process of this same binary, and prints one summary.
func runAll(ctx context.Context, jobs int, seed int64, seconds float64, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	tmp, err := scratchDir("all")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 1
	}
	defer os.RemoveAll(tmp)
	set := resultSet{Machine: machineInfo{
		Commit: os.Getenv("BENCH_COMMIT"), GoVersion: runtime.Version(),
		NProc: runtime.NumCPU(), CPU: cpuModel(), Jobs: jobs, Seed: seed,
	}}
	code := 0
	for trace := 0; trace <= 1; trace++ {
		for _, w := range workloads {
			file := filepath.Join(tmp, fmt.Sprintf("%s.%d.json", w.name, trace))
			cmd := exec.CommandContext(ctx, self,
				"-workload", w.name, "-trace", fmt.Sprint(trace), "-jobs", fmt.Sprint(jobs),
				"-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-out", file)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			// On Ctrl-C the child gets the terminal's SIGINT itself and cleans
			// up; Cancel only has to cover a SIGTERM sent to the parent alone.
			cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
				code = 1
				if ctx.Err() != nil {
					return code
				}
				continue
			}
			data, err := os.ReadFile(file)
			var r result
			if err == nil {
				err = json.Unmarshal(data, &r)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.name, trace, err)
				code = 1
				continue
			}
			if trace == 0 {
				set.Untraced = append(set.Untraced, &r)
			} else {
				set.Traced = append(set.Traced, &r)
			}
		}
	}
	printSummary(&set)
	if out != "" {
		if err := writeJSON(out, &set); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			return 1
		}
	}
	return code
}

// printSummary prints the end-to-end table of a whole set.
func printSummary(set *resultSet) {
	m := set.Machine
	fmt.Printf("\n# summary: commit %s, %s, %d x %s, jobs %d, seed %d; all times are host time\n",
		m.Commit, m.GoVersion, m.NProc, m.CPU, m.Jobs, m.Seed)
	fmt.Printf("%-16s", "workload")
	for _, d := range endToEnd {
		fmt.Printf(" %14s", d.name)
	}
	fmt.Printf("  %s\n", "digest")
	for _, r := range set.Untraced {
		fmt.Printf("%-16s", r.Workload)
		for _, d := range endToEnd {
			fmt.Printf(" %14.6g", r.Metrics[d.name].Median)
		}
		fmt.Printf("  %.12s\n", r.Digest)
	}
}
