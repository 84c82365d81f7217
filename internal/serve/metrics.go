package serve

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"upim/internal/artifact"
)

// Metrics summarize a set of completed requests.
type Metrics struct {
	// Requests counts all arrivals; Dropped counts admission rejections.
	Requests, Dropped int
	// P50MS/P95MS/P99MS are nearest-rank latency percentiles in
	// milliseconds over completed requests.
	P50MS, P95MS, P99MS float64
	// MeanMS is the mean completed-request latency in milliseconds.
	MeanMS float64
	// ThroughputRPS is completed requests per virtual second of makespan.
	ThroughputRPS float64
	// EnergyPerReqUJ is the mean modeled energy per completed request.
	EnergyPerReqUJ float64
	// SLOAttained is the fraction of completed requests that met their
	// tenant's SLO target (dropped requests count as missed).
	SLOAttained float64
}

// TenantMetrics are one tenant's Metrics plus its identity and SLO.
type TenantMetrics struct {
	Tenant   string
	Class    string
	TargetMS float64
	Metrics
}

// nearestRank returns the 0-based position of the nearest-rank p-th
// percentile (0 < p <= 100) among n > 0 sorted values: ceil(p/100 * n),
// 1-based.
func nearestRank(n int, p float64) int {
	rank := int(math.Ceil(float64(n) * p / 100))
	return min(max(rank, 1), n) - 1
}

// nthElement permutes a so that a[k] holds the value sorted(a)[k] would,
// nothing before it larger and nothing after it smaller, and returns that
// value (quickselect; a holds no NaN). A value is what an order statistic
// is, so the answer is the sort's to the bit. Each round is a Hoare
// partition of the range holding position k around a median-of-three
// pivot; both scans stop at values equal to the pivot, so ties split
// evenly. A range that keeps failing to shrink is sorted instead, which
// bounds the worst case at n log n.
func nthElement(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for rounds := 2 * bits.Len(uint(len(a))); lo < hi; rounds-- {
		if rounds == 0 {
			slices.Sort(a[lo : hi+1])
			break
		}
		x, y, z := a[lo], a[lo+(hi-lo)/2], a[hi]
		pivot := max(min(x, y), min(max(x, y), z))
		// Afterwards a[lo:j+1] <= pivot, a[i:hi+1] >= pivot and j < i;
		// anything between equals the pivot.
		i, j := lo, hi
		for i <= j {
			for a[i] < pivot {
				i++
			}
			for a[j] > pivot {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if j < k {
			lo = i
		}
		if k < i {
			hi = j
		}
	}
	return a[k]
}

// percentiles returns the nearest-rank p50, p95 and p99 of lats, or zeros
// when lats is empty. It selects them in rank order, each on the part the
// one before left above it, and permutes lats.
func percentiles(lats []float64) (p50, p95, p99 float64) {
	n := len(lats)
	if n == 0 {
		return 0, 0, 0
	}
	k50, k95, k99 := nearestRank(n, 50), nearestRank(n, 95), nearestRank(n, 99)
	p50 = nthElement(lats, k50)
	p95 = nthElement(lats[k50:], k95-k50)
	p99 = nthElement(lats[k95:], k99-k95)
	return p50, p95, p99
}

// tally accumulates one Metrics over outcomes visited in ID order. Float
// sums are order-sensitive, so that order — per tenant and overall — is
// part of the refdata contract.
type tally struct {
	requests, dropped, met int
	sumLat, sumE           float64
}

// done counts the completed requests so far.
func (a *tally) done() int { return a.requests - a.dropped }

// add counts one outcome; latency is meaningless for a dropped one.
func (a *tally) add(o *outcome, latency, target float64) {
	a.requests++
	if o.dropped {
		a.dropped++
		return
	}
	a.sumLat += latency
	a.sumE += o.energyUJ
	if target > 0 && latency <= target {
		a.met++
	}
}

// metrics finishes the tally given its completed latencies, which it
// permutes.
func (a *tally) metrics(lats []float64, makespan float64) Metrics {
	m := Metrics{Requests: a.requests, Dropped: a.dropped}
	p50, p95, p99 := percentiles(lats)
	m.P50MS, m.P95MS, m.P99MS = p50*1e3, p95*1e3, p99*1e3
	if done := len(lats); done > 0 {
		m.MeanMS = a.sumLat / float64(done) * 1e3
		m.EnergyPerReqUJ = a.sumE / float64(done)
		if makespan > 0 {
			m.ThroughputRPS = float64(done) / makespan
		}
	}
	if a.requests > 0 {
		m.SLOAttained = float64(a.met) / float64(a.requests)
	}
	return m
}

// computeMetrics produces what Serve reports: per-tenant metrics (in tenant
// order) and the overall aggregate, where makespan is the last finish time.
func computeMetrics(arr *arrivals, outs []outcome, makespan float64) ([]TenantMetrics, Metrics) {
	var s scratch
	return s.tenantMetrics(arr, outs, makespan), s.overallMetrics(arr, outs, makespan)
}

// tenantMetrics produces per-tenant metrics, in tenant order, in one pass
// over a replay's outcomes in ID order. The completed latencies go to one
// buffer, tenant after tenant, and each tenant's percentiles are selected on
// its part. The buffer and the tallies are s's.
func (s *scratch) tenantMetrics(arr *arrivals, outs []outcome, makespan float64) []TenantMetrics {
	tenants := arr.tenants
	// Tenant ti's latencies are written from at[ti], room for all its
	// requests; the parts close up once the drops are known.
	at := resize(s.at, len(tenants)+1)
	clear(at)
	for _, ti := range arr.owner {
		at[ti+1]++
	}
	for ti := range tenants {
		at[ti+1] += at[ti]
	}
	lats := resize(s.lats, len(outs))
	per := resize(s.per, len(tenants))
	clear(per)
	s.at, s.lats, s.per = at, lats, per
	for id := range outs {
		o, ti := &outs[id], arr.owner[id]
		l := o.finish - arr.reqs[id].Arrival
		if !o.dropped {
			lats[at[ti]+per[ti].done()] = l
		}
		per[ti].add(o, l, tenants[ti].SLOTarget)
	}
	out := make([]TenantMetrics, len(tenants))
	done := 0
	for ti, t := range tenants {
		part := lats[done : done+per[ti].done()]
		copy(part, lats[at[ti]:])
		done += len(part)
		out[ti] = TenantMetrics{
			Tenant:   t.Name,
			Class:    t.SLOClass,
			TargetMS: t.SLOTarget * 1e3,
			Metrics:  per[ti].metrics(part, makespan),
		}
	}
	return out
}

// overallMetrics aggregates every request of a replay in one pass over its
// outcomes in ID order: the overall sums run over all requests in that
// order, not over the tenants' sums. The latency buffer is s's.
func (s *scratch) overallMetrics(arr *arrivals, outs []outcome, makespan float64) Metrics {
	lats := resize(s.lats, len(outs))
	s.lats = lats
	var all tally
	for id := range outs {
		o := &outs[id]
		l := o.finish - arr.reqs[id].Arrival
		if !o.dropped {
			lats[all.done()] = l
		}
		all.add(o, l, arr.tenants[arr.owner[id]].SLOTarget)
	}
	return all.metrics(lats[:all.done()], makespan)
}

// num renders a full-precision numeric cell: the exact value is what
// refdata comparison sees, the %.6g text is what reports show.
func num(v float64) artifact.Value { return artifact.Raw(fmt.Sprintf("%.6g", v), v) }

// RequestTable renders the per-request latency/energy record — the
// serving analogue of a figure's data table, refdata-pinned at tiny
// scale.
func (r *Result) RequestTable() *artifact.Table {
	tab := &artifact.Table{
		Key:   "serve-requests",
		ID:    "Serve",
		Title: fmt.Sprintf("Per-request record (%s policy, load %.2f)", r.PolicyName, r.Load),
		Scale: r.Scale.String(),
		Columns: []artifact.Column{
			{Name: "id"}, {Name: "tenant"}, {Name: "class"}, {Name: "benchmark"},
			{Name: "arrival", Unit: "ms"}, {Name: "start", Unit: "ms"},
			{Name: "finish", Unit: "ms"}, {Name: "latency", Unit: "ms"},
			{Name: "batch"}, {Name: "energy", Unit: "uJ"}, {Name: "dropped"},
		},
	}
	for _, rec := range r.Records {
		if rec.Dropped {
			tab.AddRow(
				artifact.Int(rec.ID), artifact.Str(rec.Tenant), artifact.Str(rec.Class),
				artifact.Str(rec.Benchmark),
				num(rec.Arrival*1e3), num(0), num(0), num(0),
				artifact.Int(0), num(0), artifact.Int(1),
			)
			continue
		}
		tab.AddRow(
			artifact.Int(rec.ID), artifact.Str(rec.Tenant), artifact.Str(rec.Class),
			artifact.Str(rec.Benchmark),
			num(rec.Arrival*1e3), num(rec.Start*1e3),
			num(rec.Finish*1e3), num(rec.Latency()*1e3),
			artifact.Int(rec.Batch), num(rec.EnergyUJ), artifact.Int(0),
		)
	}
	return tab
}

// SummaryTable renders per-tenant and overall serving metrics.
func (r *Result) SummaryTable() *artifact.Table {
	tab := &artifact.Table{
		Key:   "serve-summary",
		ID:    "Serve",
		Title: fmt.Sprintf("Serving summary (%s policy, load %.2f, %d groups)", r.PolicyName, r.Load, r.Groups),
		Scale: r.Scale.String(),
		Columns: []artifact.Column{
			{Name: "tenant"}, {Name: "class"}, {Name: "requests"}, {Name: "dropped"},
			{Name: "p50", Unit: "ms"}, {Name: "p95", Unit: "ms"}, {Name: "p99", Unit: "ms"},
			{Name: "mean", Unit: "ms"}, {Name: "throughput", Unit: "req/s"},
			{Name: "energy/req", Unit: "uJ"}, {Name: "slo"},
		},
	}
	row := func(name, class string, m Metrics) {
		tab.AddRow(
			artifact.Str(name), artifact.Str(class),
			artifact.Int(m.Requests), artifact.Int(m.Dropped),
			num(m.P50MS), num(m.P95MS), num(m.P99MS),
			num(m.MeanMS), num(m.ThroughputRPS),
			num(m.EnergyPerReqUJ), artifact.Pct(m.SLOAttained),
		)
	}
	for _, t := range r.Tenants {
		row(t.Tenant, t.Class, t.Metrics)
	}
	row("overall", "-", r.Overall)
	return tab
}
