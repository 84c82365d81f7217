package serve

// The oracles that keep the prepare-once/replay-many run path honest: each
// compares it against the plainest independent way to get the same answer.

import (
	"context"
	"encoding/json"
	"hash/fnv"
	"math"
	"math/rand"
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

// stableSortMerge is the merge mergeStreams replaced, kept as its
// reference: a stable sort of the concatenated streams by (arrival, tenant
// index).
func stableSortMerge(streams [][]Request) ([]Request, []int32) {
	type tagged struct {
		Request
		tenant int
	}
	var all []tagged
	for ti, s := range streams {
		for _, r := range s {
			all = append(all, tagged{r, ti})
		}
	}
	sort.SliceStable(all, func(i, j int) bool {
		if all[i].Arrival != all[j].Arrival {
			return all[i].Arrival < all[j].Arrival
		}
		return all[i].tenant < all[j].tenant
	})
	reqs := make([]Request, len(all))
	owner := make([]int32, len(all))
	for i, r := range all {
		reqs[i], owner[i] = r.Request, int32(r.tenant)
		reqs[i].ID = i
	}
	return reqs, owner
}

// TestMergeStreamsMatchesStableSort drives both merges over streams whose
// arrivals sit on a coarse grid, so exact ties within and across tenants
// are the common case, plus empty and single-tenant streams.
func TestMergeStreamsMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		streams := make([][]Request, 1+rng.Intn(4))
		for ti := range streams {
			now := 0.0
			for i, n := 0, rng.Intn(12); i < n; i++ {
				now += float64(rng.Intn(3)) // gaps of 0 tie within the tenant too
				streams[ti] = append(streams[ti], Request{
					Tenant:    string(rune('a' + ti)),
					Benchmark: []string{"VA", "BS"}[rng.Intn(2)],
					Arrival:   now,
					ID:        -1 - i, // scrambled: the merge must assign IDs itself
				})
			}
		}
		wantReqs, wantOwner := stableSortMerge(streams)
		gotReqs, gotOwner := mergeStreams(streams) // consumes streams
		if len(gotReqs) != len(wantReqs) {
			t.Fatalf("trial %d: merged %d requests, want %d", trial, len(gotReqs), len(wantReqs))
		}
		for i := range wantReqs {
			if gotReqs[i] != wantReqs[i] || gotOwner[i] != wantOwner[i] {
				t.Fatalf("trial %d: position %d = %+v (tenant %d), want %+v (tenant %d)",
					trial, i, gotReqs[i], gotOwner[i], wantReqs[i], wantOwner[i])
			}
		}
	}
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

// TestComputeMetricsMatchesNaive: the single indexed pass is bit-equal to
// the reference over seeded random records — interleaved tenants, drops,
// a tenant with no completions, repeated latencies.
func TestComputeMetricsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 100; trial++ {
		tenants := make([]tenant, 1+rng.Intn(4))
		for ti := range tenants {
			tenants[ti] = tenant{Tenant: Tenant{
				Name:      string(rune('a' + ti)),
				SLOClass:  "c",
				SLOTarget: rng.Float64() * 0.02,
			}}
		}
		allDropped := rng.Intn(len(tenants) + 1) // one tenant (or none) completes nothing
		n := rng.Intn(400)
		records := make([]Record, n)
		owner := make([]int32, n)
		makespan := 0.0
		now := 0.0
		for id := range records {
			ti := rng.Intn(len(tenants))
			now += rng.ExpFloat64() * 1e-3
			r := Record{Request: Request{ID: id, Tenant: tenants[ti].Name, Arrival: now}}
			if ti == allDropped || rng.Intn(5) == 0 {
				r.Dropped = true
			} else {
				r.Start = now + float64(rng.Intn(4))*1e-3 // few distinct waits: ties in the sort
				r.Finish = r.Start + float64(1+rng.Intn(3))*2.5e-3
				r.Batch = 1 + rng.Intn(4)
				r.EnergyUJ = rng.Float64() * 50
				makespan = math.Max(makespan, r.Finish)
			}
			records[id], owner[id] = r, int32(ti)
		}
		wantT, wantAll := naiveMetrics(tenants, records, makespan)
		gotT, gotAll := computeMetrics(tenants, owner, records, makespan)
		sameBits(t, "overall", gotAll, wantAll)
		for ti := range tenants {
			if gotT[ti].Tenant != wantT[ti].Tenant || gotT[ti].Class != wantT[ti].Class || gotT[ti].TargetMS != wantT[ti].TargetMS {
				t.Errorf("trial %d: tenant %d identity = %+v, want %+v", trial, ti, gotT[ti], wantT[ti])
			}
			sameBits(t, "tenant "+tenants[ti].Name, gotT[ti].Metrics, wantT[ti].Metrics)
		}
		if t.Failed() {
			t.Fatalf("trial %d (%d records, %d tenants) diverged", trial, n, len(tenants))
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
