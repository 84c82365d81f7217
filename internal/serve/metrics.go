package serve

import (
	"fmt"
	"math"
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

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// sorted, or 0 when sorted is empty.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	// Nearest-rank: ceil(p/100 * n), 1-based.
	rank := int(math.Ceil(float64(len(sorted)) * p / 100))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// tally accumulates one Metrics over records visited in ID order. Float
// sums are order-sensitive, so that order — per tenant and overall — is
// part of the refdata contract.
type tally struct {
	requests, dropped, met int
	sumLat, sumE           float64
}

// add counts one record; latency is meaningless for a dropped one.
func (a *tally) add(r *Record, latency, target float64) {
	a.requests++
	if r.Dropped {
		a.dropped++
		return
	}
	a.sumLat += latency
	a.sumE += r.EnergyUJ
	if target > 0 && latency <= target {
		a.met++
	}
}

// metrics finishes the tally given its completed latencies, sorted.
func (a *tally) metrics(sorted []float64, makespan float64) Metrics {
	m := Metrics{
		Requests: a.requests,
		Dropped:  a.dropped,
		P50MS:    percentile(sorted, 50) * 1e3,
		P95MS:    percentile(sorted, 95) * 1e3,
		P99MS:    percentile(sorted, 99) * 1e3,
	}
	if done := len(sorted); done > 0 {
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

// computeMetrics produces per-tenant metrics (in tenant order) and the
// overall aggregate in one pass over records, where owner[id] is record
// id's tenant index and makespan the last finish time. Each tenant's
// latencies are sorted once; the overall percentiles come from merging
// those sorted slices.
func computeMetrics(tenants []tenant, owner []int32, records []Record, makespan float64) ([]TenantMetrics, Metrics) {
	counts := make([]int, len(tenants))
	for _, ti := range owner {
		counts[ti]++
	}
	per := make([]tally, len(tenants))
	lats := make([][]float64, len(tenants))
	for ti, n := range counts {
		lats[ti] = make([]float64, 0, n)
	}
	var all tally
	for id := range records {
		r, ti := &records[id], owner[id]
		l, target := r.Latency(), tenants[ti].SLOTarget
		per[ti].add(r, l, target)
		all.add(r, l, target)
		if !r.Dropped {
			lats[ti] = append(lats[ti], l)
		}
	}
	out := make([]TenantMetrics, len(tenants))
	for ti, t := range tenants {
		slices.Sort(lats[ti])
		out[ti] = TenantMetrics{
			Tenant:   t.Name,
			Class:    t.SLOClass,
			TargetMS: t.SLOTarget * 1e3,
			Metrics:  per[ti].metrics(lats[ti], makespan),
		}
	}
	return out, all.metrics(mergeSorted(lats), makespan)
}

// mergeSorted merges sorted slices into one sorted slice.
func mergeSorted(parts [][]float64) []float64 {
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	heads := slices.Clone(parts)
	out := make([]float64, 0, total)
	for len(out) < total {
		first := -1
		for i, h := range heads {
			if len(h) > 0 && (first < 0 || h[0] < heads[first][0]) {
				first = i
			}
		}
		out = append(out, heads[first][0])
		heads[first] = heads[first][1:]
	}
	return out
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
