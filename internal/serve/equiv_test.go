package serve

// The oracles that keep the prepare-once/replay-many run path honest: each
// compares it against the plainest independent way to get the same answer.

import (
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"upim/internal/artifact"
)

// TestLoadSweepMatchesPerCellServe: the sweep's table — profiled once,
// arrivals shared per load, cells replayed in parallel — is byte-identical
// to one assembled from independent Serve calls, at any Parallelism, with
// and without admission drops.
func TestLoadSweepMatchesPerCellServe(t *testing.T) {
	ctx := context.Background()
	policies := []string{"fifo", "wfq", "slo"}
	loads := []float64{0.6, 3}
	for _, tc := range []struct {
		name     string
		maxQueue int
	}{{"unbounded", 0}, {"maxqueue-drops", 3}} {
		t.Run(tc.name, func(t *testing.T) {
			opts := testOptions()
			opts.Requests = 40
			opts.MaxQueue = tc.maxQueue

			want := &artifact.Table{}
			dropped := 0
			for _, name := range policies {
				for _, load := range loads {
					o := opts
					o.Load = load
					var err error
					if o.Policy, err = NewPolicy(name, o.Tenants); err != nil {
						t.Fatal(err)
					}
					res, err := Serve(ctx, o)
					if err != nil {
						t.Fatalf("serve %s@%v: %v", name, load, err)
					}
					dropped += res.Overall.Dropped
					for _, tm := range res.Tenants {
						want.AddRow(
							artifact.Str(name), num(load), artifact.Str(tm.Tenant),
							num(tm.P50MS), num(tm.P99MS), num(tm.ThroughputRPS), num(tm.EnergyPerReqUJ),
						)
					}
				}
			}
			if (dropped > 0) != (tc.maxQueue > 0) {
				t.Fatalf("dropped = %d with MaxQueue %d: the case does not test what it names", dropped, tc.maxQueue)
			}
			wantRows, err := json.Marshal(want.Rows)
			if err != nil {
				t.Fatal(err)
			}
			for _, jobs := range []int{1, 8} {
				o := opts
				o.Parallelism = jobs
				tab, err := LoadSweep(ctx, o, policies, loads)
				if err != nil {
					t.Fatalf("LoadSweep jobs=%d: %v", jobs, err)
				}
				got, err := json.Marshal(tab.Rows)
				if err != nil {
					t.Fatal(err)
				}
				if string(got) != string(wantRows) {
					t.Errorf("jobs=%d: sweep rows differ from per-cell Serve rows:\n got %s\nwant %s", jobs, got, wantRows)
				}
			}
		})
	}
}

// refPoissonRequests is the generator arrivals.poisson replaced, kept as
// its reference: each tenant's stream drawn in full as whole Requests, each
// deadline its arrival plus the tenant's class target, then merged by
// copying them, ties to the lowest tenant index.
func refPoissonRequests(seed int64, tenants []tenant) ([]Request, []int32) {
	var streams [][]Request
	for _, t := range tenants {
		rng := rand.New(rand.NewSource(tenantSeed(seed, t.Name)))
		s := make([]Request, t.Requests)
		now := 0.0
		for i := range s {
			now += rng.ExpFloat64() / t.Rate
			s[i] = Request{Tenant: t.Name, Class: t.SLOClass, Benchmark: t.Mix[rng.Intn(len(t.Mix))],
				Arrival: now, deadline: now + t.classTarget}
		}
		streams = append(streams, s)
	}
	var reqs []Request
	var owner []int32
	for {
		first := -1
		for ti, s := range streams {
			if len(s) > 0 && (first < 0 || s[0].Arrival < streams[first][0].Arrival) {
				first = ti
			}
		}
		if first < 0 {
			return reqs, owner
		}
		r := streams[first][0]
		r.ID = len(reqs)
		reqs, owner = append(reqs, r), append(owner, int32(first))
		streams[first] = streams[first][1:]
	}
}

// TestPoissonMatchesReference: the lazily merged generator writes the
// reference's requests, deadlines included, and owners, and each request's
// kernel index names its benchmark. Every other trial gives its tenants one
// name and one rate, so they draw the same stream and their arrivals tie
// across tenants: the merge must break each tie by tenant index.
func TestPoissonMatchesReference(t *testing.T) {
	kernels := []string{"BS", "GEMV", "RED", "VA"}
	rng := rand.New(rand.NewSource(17))
	ties := 0
	for trial := 0; trial < 100; trial++ {
		same := trial%2 == 1
		a := &arrivals{tenants: make([]tenant, 1+rng.Intn(4))}
		for ti := range a.tenants {
			tn := tenant{Tenant: Tenant{
				Name:     string(rune('a' + ti)),
				SLOClass: []string{"latency", "batch"}[rng.Intn(2)],
				Rate:     float64(1 + rng.Intn(1000)),
				Requests: rng.Intn(300),
			}, classTarget: []float64{0, 1e-3, 2.5e-3}[rng.Intn(3)]}
			if same {
				tn.Name, tn.Rate = "x", 100
			}
			for _, k := range rng.Perm(len(kernels))[:1+rng.Intn(len(kernels))] {
				tn.Mix = append(tn.Mix, kernels[k])
				tn.kernels = append(tn.kernels, int32(k))
			}
			a.tenants[ti] = tn
		}
		seed := rng.Int63()
		wantReqs, wantOwner := refPoissonRequests(seed, a.tenants)
		a.poisson(seed)
		if !slices.Equal(a.reqs, wantReqs) || !slices.Equal(a.owner, wantOwner) {
			t.Fatalf("trial %d: the generated stream differs from the reference", trial)
		}
		for id, r := range a.reqs {
			if kernels[a.kernel[id]] != r.Benchmark {
				t.Fatalf("trial %d: request %d runs %s but carries kernel %d", trial, id, r.Benchmark, a.kernel[id])
			}
			if id > 0 && r.Arrival == a.reqs[id-1].Arrival {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no two arrivals tied: the tie-breaking goes unchecked")
	}
}

// percentile is the nearest-rank p-th percentile (0 < p <= 100) of sorted,
// or 0 when sorted is empty: the sort-based reference the metrics'
// selection is held to.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(float64(len(sorted)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// naiveMetrics is the filter-copy-sort computation computeMetrics
// replaced, kept as its reference: per tenant, copy out that tenant's
// records by name and reduce them; overall, reduce all of them.
func naiveMetrics(tenants []tenant, records []Record, makespan float64) ([]TenantMetrics, Metrics) {
	targets := map[string]float64{}
	for _, t := range tenants {
		targets[t.Name] = t.SLOTarget
	}
	reduce := func(recs []Record) Metrics {
		var m Metrics
		var lats []float64
		var sumLat, sumE float64
		met := 0
		for _, r := range recs {
			m.Requests++
			if r.Dropped {
				m.Dropped++
				continue
			}
			l := r.Latency()
			lats = append(lats, l)
			sumLat += l
			sumE += r.EnergyUJ
			if r.SLOMet(targets[r.Tenant]) {
				met++
			}
		}
		sort.Float64s(lats)
		done := len(lats)
		m.P50MS = percentile(lats, 50) * 1e3
		m.P95MS = percentile(lats, 95) * 1e3
		m.P99MS = percentile(lats, 99) * 1e3
		if done > 0 {
			m.MeanMS = sumLat / float64(done) * 1e3
			m.EnergyPerReqUJ = sumE / float64(done)
		}
		if makespan > 0 {
			m.ThroughputRPS = float64(done) / makespan
		}
		if m.Requests > 0 {
			m.SLOAttained = float64(met) / float64(m.Requests)
		}
		return m
	}
	out := make([]TenantMetrics, len(tenants))
	for i, t := range tenants {
		var recs []Record
		for _, r := range records {
			if r.Tenant == t.Name {
				recs = append(recs, r)
			}
		}
		out[i] = TenantMetrics{Tenant: t.Name, Class: t.SLOClass, TargetMS: t.SLOTarget * 1e3, Metrics: reduce(recs)}
	}
	return out, reduce(records)
}

// sameBits fails unless two Metrics agree to the last bit.
func sameBits(t *testing.T, what string, got, want Metrics) {
	t.Helper()
	if got.Requests != want.Requests || got.Dropped != want.Dropped {
		t.Errorf("%s: requests/dropped = %d/%d, want %d/%d", what, got.Requests, got.Dropped, want.Requests, want.Dropped)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"p50", got.P50MS, want.P50MS}, {"p95", got.P95MS, want.P95MS}, {"p99", got.P99MS, want.P99MS},
		{"mean", got.MeanMS, want.MeanMS}, {"throughput", got.ThroughputRPS, want.ThroughputRPS},
		{"energy/req", got.EnergyPerReqUJ, want.EnergyPerReqUJ}, {"slo", got.SLOAttained, want.SLOAttained},
	} {
		if math.Float64bits(f.got) != math.Float64bits(f.want) {
			t.Errorf("%s: %s = %v (%#x), want %v (%#x)", what, f.name, f.got, math.Float64bits(f.got), f.want, math.Float64bits(f.want))
		}
	}
}

// metricsTrial is one seeded set of records for TestComputeMetricsMatchesNaive:
// n requests over 1-4 tenants, one tenant (or none) dropping everything and
// one in five of the rest dropped. gap draws the time to the next arrival,
// service a completed request's (wait, service) pair.
func metricsTrial(rng *rand.Rand, n int, gap func() float64, service func() (wait, svc float64)) ([]tenant, []Record, []int32, float64) {
	tenants := make([]tenant, 1+rng.Intn(4))
	for ti := range tenants {
		tenants[ti] = tenant{Tenant: Tenant{
			Name:      string(rune('a' + ti)),
			SLOClass:  "c",
			SLOTarget: rng.Float64() * 0.02,
		}}
	}
	allDropped := rng.Intn(len(tenants) + 1) // one tenant (or none) completes nothing
	records := make([]Record, n)
	owner := make([]int32, n)
	makespan := 0.0
	now := 0.0
	for id := range records {
		ti := rng.Intn(len(tenants))
		now += gap()
		r := Record{Request: Request{ID: id, Tenant: tenants[ti].Name, Arrival: now}}
		if ti == allDropped || rng.Intn(5) == 0 {
			r.Dropped = true
		} else {
			wait, svc := service()
			r.Start = now + wait
			r.Finish = r.Start + svc
			r.Batch = 1 + rng.Intn(4)
			r.EnergyUJ = rng.Float64() * 50
			makespan = math.Max(makespan, r.Finish)
		}
		records[id], owner[id] = r, int32(ti)
	}
	return tenants, records, owner, makespan
}

// TestComputeMetricsMatchesNaive: the single indexed pass is bit-equal to
// the reference over seeded random records — interleaved tenants, drops,
// a tenant with no completions, repeated latencies — and over records up to
// 50 000 long whose latencies are all equal or take only two values, where
// an order statistic's partition has the most ties to get wrong.
func TestComputeMetricsMatchesNaive(t *testing.T) {
	check := func(what string, tenants []tenant, records []Record, owner []int32, makespan float64) {
		t.Helper()
		wantT, wantAll := naiveMetrics(tenants, records, makespan)
		arr := &arrivals{tenants: tenants, reqs: make([]Request, len(records)), owner: owner}
		outs := make([]outcome, len(records))
		for id, r := range records {
			arr.reqs[id] = r.Request
			outs[id] = outcome{start: r.Start, finish: r.Finish, energyUJ: r.EnergyUJ, batch: int32(r.Batch), dropped: r.Dropped}
		}
		gotT, gotAll := computeMetrics(arr, outs, makespan)
		sameBits(t, "overall", gotAll, wantAll)
		for ti := range tenants {
			if gotT[ti].Tenant != wantT[ti].Tenant || gotT[ti].Class != wantT[ti].Class || gotT[ti].TargetMS != wantT[ti].TargetMS {
				t.Errorf("%s: tenant %d identity = %+v, want %+v", what, ti, gotT[ti], wantT[ti])
			}
			sameBits(t, "tenant "+tenants[ti].Name, gotT[ti].Metrics, wantT[ti].Metrics)
		}
		if t.Failed() {
			t.Fatalf("%s (%d records, %d tenants) diverged", what, len(records), len(tenants))
		}
	}

	rng := rand.New(rand.NewSource(29))
	expGap := func() float64 { return rng.ExpFloat64() * 1e-3 }
	for trial := 0; trial < 100; trial++ {
		tenants, records, owner, makespan := metricsTrial(rng, rng.Intn(400), expGap, func() (float64, float64) {
			// Few distinct waits and services: ties in the order.
			return float64(rng.Intn(4)) * 1e-3, float64(1+rng.Intn(3)) * 2.5e-3
		})
		check(fmt.Sprintf("trial %d", trial), tenants, records, owner, makespan)
	}

	// On a dyadic grid the arithmetic is exact, so with no wait every
	// latency is its service bit for bit: all equal, or two values.
	gridGap := func() float64 { return float64(rng.Intn(3)) / 1024 }
	for _, c := range []struct {
		name    string
		gap     func() float64
		service func() (float64, float64)
	}{
		{"all-equal", gridGap, func() (float64, float64) { return 0, 1.0 / 256 }},
		{"two-values", gridGap, func() (float64, float64) { return 0, float64(1+rng.Intn(2)) / 256 }},
		{"distinct", expGap, func() (float64, float64) { return rng.ExpFloat64() * 1e-3, rng.ExpFloat64() * 2.5e-3 }},
	} {
		for _, n := range []int{1, 2, 3, 5, 17, 100, 1000, 50000} {
			tenants, records, owner, makespan := metricsTrial(rng, n, c.gap, c.service)
			check(fmt.Sprintf("%s n=%d", c.name, n), tenants, records, owner, makespan)
		}
	}
}

// callLog wraps a Policy and fingerprints everything the scheduler tells
// it: every Pick (queue length, the IDs queued, the time, the answer) and
// every Served (tenant, seconds), in order.
type callLog struct {
	Policy
	picks, served int
	sum           uint64
}

func (c *callLog) mix(vs ...uint64) {
	h := fnv.New64a()
	var b [8]byte
	for _, v := range append(vs, c.sum) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	c.sum = h.Sum64()
}

func (c *callLog) Pick(pending []*Request, now float64) int {
	pick := c.Policy.Pick(pending, now)
	c.picks++
	c.mix(uint64(len(pending)), math.Float64bits(now), uint64(pick))
	for _, r := range pending {
		c.mix(uint64(r.ID))
	}
	return pick
}

func (c *callLog) Served(tenant string, seconds float64) {
	c.served++
	c.mix(uint64(len(tenant)), uint64(tenant[0]), math.Float64bits(seconds))
	c.Policy.Served(tenant, seconds)
}

// TestPolicyCallSequencePinned pins what a Policy observes on one small
// contended workload: the call counts and a fingerprint of the whole
// Pick/Served sequence, recorded on the per-cell run path this one
// replaced. A custom or stateful policy must see no difference.
func TestPolicyCallSequencePinned(t *testing.T) {
	pinned := map[string]struct {
		picks, served int
		sum           uint64
	}{
		"fifo": {37, 37, 0x82530ff9756951fb},
		"wfq":  {37, 37, 0x1b0b63d1f85e0d15},
		"slo":  {36, 36, 0x79603d5881910659},
	}
	for _, name := range PolicyNames() {
		opts := testOptions()
		opts.Groups = 1
		opts.Load = 2.5
		opts.MaxBatch = 2
		opts.Requests = 30
		opts.MaxQueue = 9
		// Explicit targets, the batch tenant's tighter: behind the wrapper
		// slo derives none, and without any it would order like fifo.
		opts.Tenants[0].SLOTarget, opts.Tenants[1].SLOTarget = 0.004, 0.001
		inner, err := NewPolicy(name, opts.Tenants)
		if err != nil {
			t.Fatal(err)
		}
		log := &callLog{Policy: inner}
		opts.Policy = log
		if _, err := Serve(context.Background(), opts); err != nil {
			t.Fatalf("serve %s: %v", name, err)
		}
		want := pinned[name]
		if log.picks != want.picks || log.served != want.served || log.sum != want.sum {
			t.Errorf("%s: policy saw {%d, %d, %#x}, pinned {%d, %d, %#x}",
				name, log.picks, log.served, log.sum, want.picks, want.served, want.sum)
		}
	}
}
