package serve

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"upim/internal/config"
	"upim/internal/prim"
)

// testOptions is the canonical tiny workload the tests serve: two
// co-located tenants with distinct mixes, shares and SLO classes.
func testOptions() Options {
	return Options{
		Tenants: []Tenant{
			{Name: "alpha", Mix: []string{"VA", "RED"}, Weight: 3, SLOClass: "latency"},
			{Name: "beta", Mix: []string{"BS"}, Weight: 1, SLOClass: "batch"},
		},
		Groups:   2,
		Requests: 12,
		Scale:    prim.ScaleTiny,
		Seed:     7,
	}
}

// tableJSON canonicalizes a run's request table for byte-comparison.
func tableJSON(t *testing.T, r *Result) string {
	t.Helper()
	b, err := json.Marshal(r.RequestTable())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// TestServeDeterministic pins the determinism contract: repeat runs and
// runs at different engine parallelism produce byte-identical request
// tables (latencies, batches and energy included).
func TestServeDeterministic(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()
	opts.Parallelism = 1
	r1, err := Serve(ctx, opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	opts = testOptions()
	opts.Parallelism = 1
	r2, err := Serve(ctx, opts)
	if err != nil {
		t.Fatalf("serve repeat: %v", err)
	}
	opts = testOptions()
	opts.Parallelism = 8
	r8, err := Serve(ctx, opts)
	if err != nil {
		t.Fatalf("serve jobs=8: %v", err)
	}
	j1, j2, j8 := tableJSON(t, r1), tableJSON(t, r2), tableJSON(t, r8)
	if j1 != j2 {
		t.Errorf("repeat run diverged:\n%s\n%s", j1, j2)
	}
	if j1 != j8 {
		t.Errorf("jobs=1 vs jobs=8 diverged:\n%s\n%s", j1, j8)
	}
	if r1.Overall.Requests != 24 {
		t.Errorf("Requests = %d, want 24", r1.Overall.Requests)
	}
	if r1.Overall.Dropped != 0 {
		t.Errorf("Dropped = %d, want 0", r1.Overall.Dropped)
	}
	if r1.Overall.P99MS < r1.Overall.P50MS {
		t.Errorf("p99 %v < p50 %v", r1.Overall.P99MS, r1.Overall.P50MS)
	}
	if r1.Overall.EnergyPerReqUJ <= 0 {
		t.Errorf("energy/req = %v, want > 0", r1.Overall.EnergyPerReqUJ)
	}
	for _, rec := range r1.Records {
		if rec.Start < rec.Arrival {
			t.Errorf("req %d started %v before arrival %v", rec.ID, rec.Start, rec.Arrival)
		}
		if rec.Finish <= rec.Start {
			t.Errorf("req %d finish %v <= start %v", rec.ID, rec.Finish, rec.Start)
		}
	}
}

// TestPoliciesDiffer drives the same contended workload through all three
// policies and checks the schedules actually diverge — a policy knob that
// changes nothing is not a knob.
func TestPoliciesDiffer(t *testing.T) {
	ctx := context.Background()
	run := func(name string) *Result {
		opts := testOptions()
		opts.Groups = 1   // one group forces queueing, so policy order shows
		opts.Load = 2.5   // oversubscribe: the queue stays contended
		opts.MaxBatch = 1 // no batch amortization soaking up the backlog
		p, err := NewPolicy(name, opts.Tenants)
		if err != nil {
			t.Fatalf("policy %s: %v", name, err)
		}
		opts.Policy = p
		r, err := Serve(ctx, opts)
		if err != nil {
			t.Fatalf("serve %s: %v", name, err)
		}
		if r.PolicyName != name {
			t.Errorf("PolicyName = %q, want %q", r.PolicyName, name)
		}
		return r
	}
	starts := func(r *Result) []float64 {
		out := make([]float64, len(r.Records))
		for i, rec := range r.Records {
			out[i] = rec.Start
		}
		return out
	}
	fifo, wfq, slo := run("fifo"), run("wfq"), run("slo")
	same := func(a, b []float64) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if same(starts(fifo), starts(wfq)) && same(starts(fifo), starts(slo)) {
		t.Errorf("fifo, wfq and slo produced identical schedules under contention")
	}
}

// TestWeightedFairFavorsWeight: under contention, the 3x-weight tenant's
// mean latency must not be worse under wfq than the 1x tenant's by more
// than it is under fifo — i.e. weight buys service share.
func TestWeightedFairPick(t *testing.T) {
	p := WeightedFair(map[string]float64{"a": 3, "b": 1})
	reqs := []*Request{
		{ID: 0, Tenant: "b", Arrival: 0},
		{ID: 1, Tenant: "a", Arrival: 1},
	}
	// Equal served time: a's per-weight usage is lower, so a goes first
	// despite arriving later.
	p.Served("a", 1)
	p.Served("b", 1)
	if got := p.Pick(reqs, 2); got != 1 {
		t.Errorf("Pick = %d, want 1 (tenant a, lower served/weight)", got)
	}
	// Ties break on lowest index.
	p2 := WeightedFair(nil)
	if got := p2.Pick(reqs, 2); got != 0 {
		t.Errorf("tie Pick = %d, want 0", got)
	}
}

func TestSLOAwarePick(t *testing.T) {
	p := SLOAware(map[string]float64{"lat": 1, "batch": 100})
	reqs := []*Request{
		{ID: 0, Class: "batch", Arrival: 0},
		{ID: 1, Class: "lat", Arrival: 5},
	}
	// batch deadline 100, lat deadline 6: lat wins despite arriving later.
	if got := p.Pick(reqs, 5); got != 1 {
		t.Errorf("Pick = %d, want 1 (tighter deadline)", got)
	}
}

// goodTrace is a trace testOptions' tenants accept.
var goodTrace = []Request{
	{Tenant: "alpha", Benchmark: "VA", Arrival: 0},
	{Tenant: "beta", Benchmark: "BS", Arrival: 0.001},
	{Tenant: "alpha", Benchmark: "RED", Arrival: 0.002},
}

// badTraces are traces testOptions' tenants reject, each with the text its
// error must carry.
var badTraces = []struct {
	name  string
	trace []Request
	want  string
}{
	{"unknown tenant", []Request{{Tenant: "ghost", Benchmark: "VA"}}, "unknown tenant"},
	{"foreign benchmark", []Request{{Tenant: "beta", Benchmark: "VA"}}, "not in tenant"},
	{"negative arrival", []Request{{Tenant: "alpha", Benchmark: "VA", Arrival: -1}}, "invalid arrival"},
	{"out of order", []Request{
		{Tenant: "alpha", Benchmark: "VA", Arrival: 2},
		{Tenant: "alpha", Benchmark: "VA", Arrival: 1},
	}, "time-ordered"},
}

// TestTraceMode replays an explicit trace and checks validation errors.
func TestTraceMode(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()
	opts.Trace = goodTrace
	r, err := Serve(ctx, opts)
	if err != nil {
		t.Fatalf("trace serve: %v", err)
	}
	if len(r.Records) != 3 {
		t.Fatalf("records = %d, want 3", len(r.Records))
	}
	for i, rec := range r.Records {
		if rec.ID != i {
			t.Errorf("record %d has ID %d", i, rec.ID)
		}
	}
	if r.Records[0].Class != "latency" || r.Records[1].Class != "batch" {
		t.Errorf("trace classes not inherited from tenants: %+v", r.Records[:2])
	}

	for _, tc := range badTraces {
		opts := testOptions()
		opts.Trace = tc.trace
		if _, err := Serve(ctx, opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FuzzServeTrace holds trace validation to what the replay relies on, over
// testOptions' tenants and any trace: one entry per eight bytes of arrivals
// (a float64 bit pattern, so NaN, ±Inf, -0 and negatives come up), its
// tenant and benchmark the matching lines of tenants and benches. No input
// panics. An accepted trace has finite, non-negative, non-decreasing
// arrivals, known tenants, benchmarks in their tenant's mix and IDs equal to
// their index. A rejected trace's error names an entry k: the entries before
// k are accepted on their own, and the trace up to k is not.
func FuzzServeTrace(f *testing.F) {
	seed := func(trace []Request) {
		var tenants, benches []string
		var arrivals []byte
		for _, r := range trace {
			tenants = append(tenants, r.Tenant)
			benches = append(benches, r.Benchmark)
			arrivals = binary.LittleEndian.AppendUint64(arrivals, math.Float64bits(r.Arrival))
		}
		f.Add(strings.Join(tenants, "\n"), strings.Join(benches, "\n"), arrivals)
	}
	seed(goodTrace)
	for _, tc := range badTraces {
		seed(tc.trace)
	}
	// Each tenant's mix resolves to kernels numbered in mix order, from
	// 10 for the first tenant, 20 for the second.
	var tenants []tenant
	for ti, tn := range testOptions().Tenants {
		t := tenant{Tenant: tn}
		for j := range tn.Mix {
			t.kernels = append(t.kernels, int32(10*(ti+1)+j))
		}
		tenants = append(tenants, t)
	}
	accept := func(trace []Request) (*arrivals, error) {
		a := &arrivals{tenants: tenants}
		return a, a.trace(trace)
	}
	f.Fuzz(func(t *testing.T, tenantCol, benchCol string, arrivals []byte) {
		names, benches := strings.Split(tenantCol, "\n"), strings.Split(benchCol, "\n")
		trace := make([]Request, len(arrivals)/8)
		for i := range trace {
			trace[i].Arrival = math.Float64frombits(binary.LittleEndian.Uint64(arrivals[8*i:]))
			if i < len(names) {
				trace[i].Tenant = names[i]
			}
			if i < len(benches) {
				trace[i].Benchmark = benches[i]
			}
		}
		a, err := accept(trace)
		if err != nil {
			var k int
			if _, scanErr := fmt.Sscanf(err.Error(), "serve: trace entry %d:", &k); scanErr != nil || k < 0 || k >= len(trace) {
				t.Fatalf("error %q names no entry of a %d-entry trace", err, len(trace))
			}
			if _, err := accept(trace[:k]); err != nil {
				t.Fatalf("error names entry %d, but the entries before it are rejected too: %v", k, err)
			}
			if _, err := accept(trace[:k+1]); err == nil {
				t.Fatalf("error names entry %d, but the trace up to it is accepted", k)
			}
			return
		}
		reqs, owner := a.reqs, a.owner
		if len(reqs) != len(trace) || len(owner) != len(trace) || len(a.kernel) != len(trace) {
			t.Fatalf("%d entries in, %d requests, %d owners and %d kernels out", len(trace), len(reqs), len(owner), len(a.kernel))
		}
		last := 0.0
		for i, r := range reqs {
			if r.ID != i {
				t.Fatalf("request %d has ID %d", i, r.ID)
			}
			if math.IsNaN(r.Arrival) || math.IsInf(r.Arrival, 0) || r.Arrival < last {
				t.Fatalf("request %d arrives at %v after %v", i, r.Arrival, last)
			}
			last = r.Arrival
			tn := tenants[owner[i]]
			if j := slices.Index(tn.Mix, r.Benchmark); tn.Name != r.Tenant || j < 0 || tn.kernels[j] != a.kernel[i] {
				t.Fatalf("request %d (%s, %s, kernel %d) owned by tenant %q with mix %v, kernels %v",
					i, r.Tenant, r.Benchmark, a.kernel[i], tn.Name, tn.Mix, tn.kernels)
			}
		}
	})
}

// TestAdmissionControl pins MaxQueue: overflow arrivals are dropped,
// counted, and excluded from latency stats.
func TestAdmissionControl(t *testing.T) {
	opts := testOptions()
	opts.Groups = 1
	opts.Load = 3 // flood
	opts.MaxQueue = 2
	r, err := Serve(context.Background(), opts)
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	if r.Overall.Dropped == 0 {
		t.Fatalf("flooded run with MaxQueue=2 dropped nothing")
	}
	for _, rec := range r.Records {
		if rec.Dropped && (rec.Start != 0 || rec.Finish != 0 || rec.EnergyUJ != 0) {
			t.Errorf("dropped req %d carries service fields: %+v", rec.ID, rec)
		}
	}
	if r.Overall.SLOAttained >= 1 {
		t.Errorf("SLOAttained = %v with %d drops, want < 1", r.Overall.SLOAttained, r.Overall.Dropped)
	}
}

// TestPercentile: selection reads the nearest-rank percentile of values in
// any order, and the three metrics' ranks come out of one buffer.
func TestPercentile(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		want float64
	}{
		{50, 5}, {95, 10}, {99, 10}, {100, 10}, {10, 1},
	} {
		shuffled := []float64{7, 3, 10, 1, 9, 5, 2, 8, 6, 4}
		if got := nthElement(shuffled, nearestRank(len(shuffled), tc.p)); got != tc.want {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if p50, p95, p99 := percentiles(nil); p50 != 0 || p95 != 0 || p99 != 0 {
		t.Errorf("percentiles(nil) = %v, %v, %v, want 0s", p50, p95, p99)
	}
	if p50, p95, p99 := percentiles([]float64{42}); p50 != 42 || p95 != 42 || p99 != 42 {
		t.Errorf("percentiles(single) = %v, %v, %v, want 42s", p50, p95, p99)
	}
	lats := make([]float64, 200)
	for i := range lats {
		lats[i] = float64((i * 37) % 200) // 0..199, scrambled
	}
	if p50, p95, p99 := percentiles(lats); p50 != 99 || p95 != 189 || p99 != 197 {
		t.Errorf("percentiles(0..199) = %v, %v, %v, want 99, 189, 197", p50, p95, p99)
	}
}

// TestNthElementMatchesSort: selection agrees with a sort at every position,
// and leaves nothing larger before it or smaller after it, over random,
// tied, sorted and reversed values, and over a permutation that defeats the
// median-of-three pivot for twelve rounds, the budget at 32 values, so that
// selecting position 15 ends in the sort fallback.
func TestNthElementMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	inputs := [][]float64{
		{0, 17, 27, 13, 31, 29, 20, 7, 10, 1, 25, 12, 26, 14, 15, 28, 30, 3, 11, 4, 21, 16, 9, 24, 2, 22, 18, 8, 6, 5, 23, 19},
	}
	for _, n := range []int{1, 2, 3, 7, 16, 33, 100} {
		for _, distinct := range []int{1, 2, 5, n} {
			a := make([]float64, n)
			for i := range a {
				a[i] = float64(rng.Intn(distinct))
			}
			inputs = append(inputs, a)
		}
		up, down := make([]float64, n), make([]float64, n)
		for i := range up {
			up[i], down[n-1-i] = float64(i), float64(i)
		}
		inputs = append(inputs, up, down)
	}
	for _, in := range inputs {
		sorted := slices.Sorted(slices.Values(in))
		for k := range in {
			a := slices.Clone(in)
			if got := nthElement(a, k); got != sorted[k] {
				t.Fatalf("nthElement(%v, %d) = %v, want %v", in, k, got, sorted[k])
			}
			if slices.Max(a[:k+1]) != a[k] || slices.Min(a[k:]) != a[k] {
				t.Fatalf("nthElement(%v, %d) left %v: not partitioned around position %d", in, k, a, k)
			}
		}
	}
}

func TestNewPolicyVocabulary(t *testing.T) {
	for _, name := range PolicyNames() {
		p, err := NewPolicy(name, testOptions().Tenants)
		if err != nil {
			t.Errorf("NewPolicy(%q): %v", name, err)
		} else if p.Name() != name {
			t.Errorf("NewPolicy(%q).Name() = %q", name, p.Name())
		}
	}
	if _, err := NewPolicy("lifo", nil); err == nil || !strings.Contains(err.Error(), "unknown policy") {
		t.Errorf("NewPolicy(lifo) err = %v", err)
	}
	if p, err := NewPolicy("", nil); err != nil || p.Name() != "fifo" {
		t.Errorf("NewPolicy(\"\") = %v, %v; want fifo", p, err)
	}
}

// TestServeValidation covers the option errors.
func TestServeValidation(t *testing.T) {
	ctx := context.Background()
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"no tenants", func(o *Options) { o.Tenants = nil }, "no tenants"},
		{"unnamed tenant", func(o *Options) { o.Tenants[0].Name = "" }, "has no name"},
		{"empty mix", func(o *Options) { o.Tenants[1].Mix = nil }, "empty benchmark mix"},
		{"unknown benchmark", func(o *Options) { o.Tenants[0].Mix = []string{"NOPE"} }, "NOPE"},
		// More DPUs than a server holds is refused before anything is sized
		// by it; these counts used to panic making the replay's or the
		// profiling's slices.
		{"groups past a server", func(o *Options) { o.Groups = 1 << 62 }, "2560 DPUs"},
		{"group DPUs past a server", func(o *Options) { o.GroupDPUs = 1 << 62 }, "2560 DPUs"},
		{"groups × DPUs overflow", func(o *Options) { o.Groups, o.GroupDPUs = 1<<62, 1<<62 }, "2560 DPUs"},
		{"groups × DPUs past a server", func(o *Options) { o.Groups, o.GroupDPUs = 1281, 2 }, "1281 groups of 2 DPUs"},
	}
	for _, tc := range cases {
		opts := testOptions()
		tc.mut(&opts)
		if _, err := Serve(ctx, opts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	opts := testOptions()
	opts.Groups = 1 << 62
	if _, err := Serve(ctx, opts); !errors.Is(err, ErrTooManyDPUs) {
		t.Errorf("err = %v, want ErrTooManyDPUs", err)
	}
	// A full server is not past the bound.
	opts.Groups = maxServerDPUs
	if _, err := Serve(ctx, opts); err != nil {
		t.Errorf("%d groups of one DPU: %v", opts.Groups, err)
	}
}

// TestServeMaxBatchPastStream: a batch bound past the request count means
// the request count, however large. The batch buffer is sized by the
// smaller of the two; sizing it by the bound alone panicked.
func TestServeMaxBatchPastStream(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()
	opts.Groups, opts.Load = 1, 3 // a long queue, so batches fill
	opts.MaxBatch = 2 * opts.Requests
	want, err := Serve(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	opts.MaxBatch = 1 << 62
	got, err := Serve(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tableJSON(t, got) != tableJSON(t, want) {
		t.Errorf("MaxBatch 1<<62 schedules differently from MaxBatch %d, the stream's length", 2*opts.Requests)
	}
	if largest := slices.MaxFunc(want.Records, func(a, b Record) int { return a.Batch - b.Batch }).Batch; largest <= 4 {
		t.Errorf("largest batch %d: the default bound would schedule the same", largest)
	}
}

// TestEvalP99 pins the canned pathfinding goal: deterministic across
// calls, positive, and policy-sensitive enough to be a real axis.
func TestEvalP99(t *testing.T) {
	res, err := prim.RunSpec(context.Background(), prim.Spec{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	a, err := EvalP99(res, "fifo")
	if err != nil {
		t.Fatalf("EvalP99: %v", err)
	}
	b, err := EvalP99(res, "fifo")
	if err != nil {
		t.Fatalf("EvalP99 repeat: %v", err)
	}
	if a != b {
		t.Errorf("EvalP99 nondeterministic: %v vs %v", a, b)
	}
	if a <= 0 || math.IsNaN(a) {
		t.Errorf("EvalP99 = %v, want > 0", a)
	}
	if _, err := EvalP99(res, "bogus"); err == nil {
		t.Errorf("EvalP99(bogus) succeeded")
	}
	est, err := EvalP99Estimate(0.001, "VA", "fifo")
	if err != nil {
		t.Fatalf("EvalP99Estimate: %v", err)
	}
	if est <= 0 {
		t.Errorf("EvalP99Estimate = %v, want > 0", est)
	}
}

// TestLoadSweep checks the QoS-curve artifact's shape: one row per
// (policy, load, tenant), latencies non-decreasing per policy/tenant as
// load rises is NOT asserted (queueing noise at tiny scale) — only
// positivity and determinism.
func TestLoadSweep(t *testing.T) {
	opts := testOptions()
	opts.Requests = 6
	policies := []string{"fifo", "wfq"}
	loads := []float64{0.5, 1.0}
	tab, err := LoadSweep(context.Background(), opts, policies, loads)
	if err != nil {
		t.Fatalf("LoadSweep: %v", err)
	}
	wantRows := len(policies) * len(loads) * len(opts.Tenants)
	if len(tab.Rows) != wantRows {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), wantRows)
	}
	if tab.Key != "serve-load" || tab.Scale != "tiny" {
		t.Errorf("table key/scale = %q/%q", tab.Key, tab.Scale)
	}
	tab2, err := LoadSweep(context.Background(), opts, policies, loads)
	if err != nil {
		t.Fatalf("LoadSweep repeat: %v", err)
	}
	j1, _ := json.Marshal(tab)
	j2, _ := json.Marshal(tab2)
	if string(j1) != string(j2) {
		t.Errorf("LoadSweep nondeterministic")
	}
}

// TestLoadSweepLabelsReplayedLoad: a non-positive load replays at the
// default, and its rows name the default, as Serve's Result.Load does. The
// rows used to print the raw 0 beside identical latencies labelled 0.7.
func TestLoadSweepLabelsReplayedLoad(t *testing.T) {
	opts := testOptions()
	opts.Requests = 6
	tab, err := LoadSweep(context.Background(), opts, []string{"fifo"}, []float64{0, defaultLoad})
	if err != nil {
		t.Fatalf("LoadSweep: %v", err)
	}
	if len(tab.Rows) != 2*len(opts.Tenants) {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*len(opts.Tenants))
	}
	for i, row := range tab.Rows {
		if load := row[1]; load.Num != defaultLoad || load.Text != "0.7" {
			t.Errorf("row %d load = %q (%v), want the replayed %v", i, load.Text, load.Num, defaultLoad)
		}
	}
}

// TestLoadSweepLabelsReplayedPolicy: an empty policy name replays fifo, and
// its rows name fifo, as Serve's Result.PolicyName does, not a blank policy
// beside fifo's latencies.
func TestLoadSweepLabelsReplayedPolicy(t *testing.T) {
	opts := testOptions()
	opts.Requests = 6
	tab, err := LoadSweep(context.Background(), opts, []string{"", "fifo"}, []float64{0.5})
	if err != nil {
		t.Fatalf("LoadSweep: %v", err)
	}
	n := len(opts.Tenants)
	if len(tab.Rows) != 2*n {
		t.Fatalf("rows = %d, want %d", len(tab.Rows), 2*n)
	}
	for i, row := range tab.Rows {
		if policy := row[0].Text; policy != "fifo" {
			t.Errorf("row %d policy = %q, want the replayed fifo", i, policy)
		}
	}
	empty, _ := json.Marshal(tab.Rows[:n])
	fifo, _ := json.Marshal(tab.Rows[n:])
	if string(empty) != string(fifo) {
		t.Errorf("the empty name's rows differ from fifo's:\n got %s\nwant %s", empty, fifo)
	}
}

// TestServeRejectsNonFinite is the regression test for a hang: a NaN load
// or rate made every arrival NaN, which the event loop never reaches, so
// Serve spun forever. Every non-finite number is now a validation error;
// the timeout turns a reintroduced hang into a failure, not a stuck run.
func TestServeRejectsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name string
		mut  func(*Options)
		want string
	}{
		{"NaN load", func(o *Options) { o.Load = nan }, "load NaN"},
		{"+Inf load", func(o *Options) { o.Load = inf }, "load +Inf"},
		{"-Inf load", func(o *Options) { o.Load = -inf }, "load -Inf"},
		{"NaN rate", func(o *Options) { o.Tenants[0].Rate = nan }, "rate NaN"},
		{"Inf rate", func(o *Options) { o.Tenants[1].Rate = inf }, "rate +Inf"},
		{"NaN weight", func(o *Options) { o.Tenants[0].Weight = nan }, "weight NaN"},
		{"Inf SLO target", func(o *Options) { o.Tenants[1].SLOTarget = inf }, "SLO target +Inf"},
		{"NaN trace arrival", func(o *Options) {
			o.Trace = []Request{{Tenant: "alpha", Benchmark: "VA", Arrival: nan}}
		}, "invalid arrival NaN"},
		{"Inf trace arrival", func(o *Options) {
			o.Trace = []Request{{Tenant: "alpha", Benchmark: "VA", Arrival: inf}}
		}, "invalid arrival +Inf"},
	}
	within := func(t *testing.T, name, want string, run func() error) {
		t.Helper()
		done := make(chan error, 1)
		go func() { done <- run() }()
		select {
		case err := <-done:
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s: err = %v, want %q", name, err, want)
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s: still running after 30s (the non-finite value reached the event loop)", name)
		}
	}
	for _, tc := range cases {
		opts := testOptions()
		tc.mut(&opts)
		within(t, tc.name, tc.want, func() error {
			_, err := Serve(context.Background(), opts)
			return err
		})
	}
	for _, load := range []float64{nan, inf} {
		within(t, "sweep load", "is not a finite number", func() error {
			_, err := LoadSweep(context.Background(), testOptions(), []string{"fifo"}, []float64{0.5, load})
			return err
		})
	}
}

// TestDuplicateTenantRejected: metrics and traces address tenants by name,
// so two tenants may not share one.
func TestDuplicateTenantRejected(t *testing.T) {
	opts := testOptions()
	opts.Tenants[1].Name = opts.Tenants[0].Name
	if _, err := Serve(context.Background(), opts); err == nil || !strings.Contains(err.Error(), "duplicate tenant name") {
		t.Errorf("err = %v, want duplicate tenant name", err)
	}
}

// TestReusedSLOPolicyKeepsNoTargets is the regression test for a state
// leak: the run used to write its auto-derived class targets into the
// caller's SLO-aware policy, so an instance reused for a second, different
// workload scheduled it by the first one's targets.
func TestReusedSLOPolicyKeepsNoTargets(t *testing.T) {
	ctx := context.Background()
	first := testOptions()
	first.Groups, first.Load, first.MaxBatch = 1, 2.5, 1
	// Same classes, mixes swapped: the derived targets change hands.
	second := first
	second.Tenants = []Tenant{
		{Name: "alpha", Mix: []string{"BS"}, Weight: 3, SLOClass: "latency"},
		{Name: "beta", Mix: []string{"VA", "RED"}, Weight: 1, SLOClass: "batch"},
	}

	reused := SLOAware(nil)
	first.Policy = reused
	if _, err := Serve(ctx, first); err != nil {
		t.Fatalf("first run: %v", err)
	}
	second.Policy = reused
	got, err := Serve(ctx, second)
	if err != nil {
		t.Fatalf("second run, reused policy: %v", err)
	}
	second.Policy = SLOAware(nil)
	want, err := Serve(ctx, second)
	if err != nil {
		t.Fatalf("second run, fresh policy: %v", err)
	}
	if tableJSON(t, got) != tableJSON(t, want) {
		t.Errorf("a reused SLO policy scheduled the second workload differently from a fresh one")
	}
	// The derived targets must matter here, or the test proves nothing.
	second.Policy = FIFO()
	plain, err := Serve(ctx, second)
	if err != nil {
		t.Fatalf("second run, fifo: %v", err)
	}
	if tableJSON(t, plain) == tableJSON(t, want) {
		t.Fatalf("slo and fifo schedule this workload identically: pick a more contended one")
	}
}

// cancelOnPick cancels its context at the n-th Pick, from inside a run.
type cancelOnPick struct {
	Policy
	n      int
	cancel context.CancelFunc
}

func (c *cancelOnPick) Pick(pending []*Request, now float64) int {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Policy.Pick(pending, now)
}

// TestReplayObservesCancel: a single long replay stops at its next coarse
// context check instead of running to the end of the stream.
func TestReplayObservesCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := testOptions()
	opts.Requests = 4 * ctxCheckEvents
	picker := &cancelOnPick{Policy: FIFO(), n: 10, cancel: cancel}
	opts.Policy = picker
	res, err := Serve(ctx, opts)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Serve cancelled mid-replay: res %v, err %v; want context.Canceled", res != nil, err)
	}
	if served := -picker.n; served > 2*ctxCheckEvents {
		t.Errorf("replay made %d more picks after the cancel, want at most ~%d", served, ctxCheckEvents)
	}
}

// errAfter is a context that cancels itself at the n-th Err call — a
// deterministic way to cancel a sweep between two of its cells.
type errAfter struct {
	context.Context
	cancel context.CancelFunc
	calls  atomic.Int64
	n      int64
}

func (c *errAfter) Err() error {
	if c.calls.Add(1) == c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestLoadSweepCancellation: a pre-cancelled context starts nothing; one
// cancelled mid-sweep stops the sweep from starting further cells. Both
// return the context's error, and the sweep's workers are gone on return.
func TestLoadSweepCancellation(t *testing.T) {
	policies := []string{"fifo", "wfq", "slo"}
	loads := []float64{0.5, 0.8, 1.1, 1.4}
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := LoadSweep(ctx, testOptions(), policies, loads); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled LoadSweep: err = %v, want context.Canceled", err)
	}

	// Mid-sweep: profile under a live context, then sweep under one that
	// cancels at its 4th Err call. Two workers spend one call each to start
	// a cell, so the cancel lands while cells 3+ of 12 have yet to start.
	opts := testOptions()
	opts.Parallelism = 2
	p, err := prepare(context.Background(), opts)
	if err != nil {
		t.Fatalf("prepare: %v", err)
	}
	inner, cancel := context.WithCancel(context.Background())
	defer cancel()
	mid := &errAfter{Context: inner, cancel: cancel, n: 4}
	if _, err := p.sweep(mid, policies, loads); !errors.Is(err, context.Canceled) {
		t.Errorf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	// Every later cell would cost a worker another Err call: 12 cells
	// started would take at least 12. Each worker sees the cancel on its
	// next call, and the sweep itself checks once more at the end.
	if calls := mid.calls.Load(); calls > 4+2+1 {
		t.Errorf("sweep made %d Err calls: it kept starting cells after the cancel at call 4", calls)
	}

	// LoadSweep waits for its workers, so none may outlive it; the engine's
	// profiling goroutines get a moment to wind down.
	for i := 0; runtime.NumGoroutine() > before && i < 100; i++ {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the sweeps, %d after", before, after)
	}
}
