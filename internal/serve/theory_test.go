package serve

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"testing"

	"upim/internal/prim"
)

// TestServeMatchesQueueingTheory holds the event loop to closed-form
// queueing theory and to the two invariants any scheduler must keep.
//
// One rank group, FIFO and no batching make a tenant's stream an M/G/1
// queue: Poisson arrivals at rate λ, service S drawn uniformly from the
// mix's profiled times. Its mean wait is Pollaczek–Khinchine's
// Wq = λE[S²]/(2(1−ρ)), ρ = λE[S], which for a one-kernel mix (a
// deterministic S) is M/D/1's ρS/(2(1−ρ)). The simulated mean wait must
// land within three standard errors of it, the error estimated by batch
// means: twenty consecutive batches of requests, whose means are nearly
// independent where single waits are not. The same records must obey
// Little's law, L = λW, under the same kind of bound (checkLittle).
func TestServeMatchesQueueingTheory(t *testing.T) {
	ctx := context.Background()
	for _, tc := range []struct {
		mix  []string
		load float64
	}{
		{[]string{"VA"}, 0.3}, {[]string{"VA"}, 0.5}, {[]string{"VA"}, 0.8},
		{[]string{"VA", "RED"}, 0.3}, {[]string{"VA", "RED"}, 0.5}, {[]string{"VA", "RED"}, 0.8},
	} {
		t.Run(fmt.Sprintf("%v@%v", tc.mix, tc.load), func(t *testing.T) {
			opts := Options{
				Tenants:  []Tenant{{Name: "t", Mix: tc.mix}},
				Groups:   1,
				MaxBatch: 1,
				Requests: 20000,
				Load:     tc.load,
				Seed:     1,
				Scale:    prim.ScaleTiny,
			}
			res, err := Serve(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			// Each kernel's service time, read back from its records.
			svc := map[string]float64{}
			for _, r := range res.Records {
				svc[r.Benchmark] = r.Finish - r.Start
			}
			var es, es2 float64
			for _, b := range tc.mix {
				es += svc[b] / float64(len(tc.mix))
				es2 += svc[b] * svc[b] / float64(len(tc.mix))
			}
			lambda := tc.load / es // the derived rate: ρ = load on one group
			rho := lambda * es
			want := lambda * es2 / (2 * (1 - rho))

			const batches = 20
			per := len(res.Records) / batches
			var means []float64
			for b := 0; b < batches; b++ {
				sum := 0.0
				for _, r := range res.Records[b*per : (b+1)*per] {
					sum += r.Start - r.Arrival
				}
				means = append(means, sum/float64(per))
			}
			mean, sd := meanSD(means)
			se := sd / math.Sqrt(batches)
			t.Logf("Wq = %.4g s, theory %.4g s (%+.1f %%), standard error %.3g s", mean, want, 100*(mean-want)/want, se)
			if math.Abs(mean-want) > 3*se {
				t.Errorf("mean wait %.6g s is %.1f standard errors from theory's %.6g s", mean, math.Abs(mean-want)/se, want)
			}
			checkLittle(t, res.Records, lambda)
		})
	}

	// Every policy, several groups, batching and admission drops: each
	// arrival is completed or dropped exactly once, and no group idles while
	// a request waits.
	for _, name := range PolicyNames() {
		t.Run("conservation/"+name, func(t *testing.T) {
			opts := testOptions()
			opts.Groups = 3
			opts.Requests = 400
			opts.Load = 1.2
			opts.MaxQueue = 12
			var err error
			if opts.Policy, err = NewPolicy(name, opts.Tenants); err != nil {
				t.Fatal(err)
			}
			res, err := Serve(ctx, opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Overall.Dropped == 0 {
				t.Fatal("nothing dropped: admission control is not exercised")
			}
			if n := opts.Requests * len(opts.Tenants); len(res.Records) != n || res.Overall.Requests != n {
				t.Fatalf("%d records, %d requests counted, want %d arrivals", len(res.Records), res.Overall.Requests, n)
			}
			checkConservation(t, res, opts.Groups)
		})
	}
}

// checkLittle holds arrival-ordered records to Little's law, L = λW: L the
// time-averaged number of requests in the system, read off the records'
// arrival and finish times; W their mean time in it; λ the offered rate. In
// each of twenty batches of consecutive requests, L over the batch's
// arrival window less λ times the batch's mean sojourn has mean zero; the
// twenty differences must average within three standard errors of it.
func checkLittle(t *testing.T, recs []Record, lambda float64) {
	t.Helper()
	// The number in the system steps up at each arrival and down at each
	// finish; area is its integral from 0 to each window boundary.
	type step struct {
		at float64
		d  int
	}
	steps := make([]step, 0, 2*len(recs))
	for _, r := range recs {
		steps = append(steps, step{r.Arrival, 1}, step{r.Finish, -1})
	}
	slices.SortFunc(steps, func(a, b step) int { return cmp.Compare(a.at, b.at) })
	const batches = 20
	per := len(recs) / (batches + 1)
	area := make([]float64, batches+1)
	var sum, last float64
	n, i := 0, 0
	for b := range area {
		x := recs[b*per].Arrival
		for ; i < len(steps) && steps[i].at <= x; i++ {
			sum += float64(n) * (steps[i].at - last)
			last, n = steps[i].at, n+steps[i].d
		}
		area[b] = sum + float64(n)*(x-last)
	}
	var gaps []float64
	var avgL, avgW float64
	for b := 0; b < batches; b++ {
		l := (area[b+1] - area[b]) / (recs[(b+1)*per].Arrival - recs[b*per].Arrival)
		w := 0.0
		for _, r := range recs[b*per : (b+1)*per] {
			w += r.Finish - r.Arrival
		}
		w /= float64(per)
		gaps = append(gaps, l-lambda*w)
		avgL, avgW = avgL+l/batches, avgW+w/batches
	}
	mean, sd := meanSD(gaps)
	se := sd / math.Sqrt(batches)
	t.Logf("L = %.4g, λW = %.4g (%+.2f %%), standard error %.3g", avgL, lambda*avgW, 100*mean/(lambda*avgW), se)
	if math.Abs(mean) > 3*se {
		t.Errorf("L − λW = %.4g is %.1f standard errors from zero", mean, math.Abs(mean)/se)
	}
}

// meanSD returns the mean and sample standard deviation of xs.
func meanSD(xs []float64) (mean, sd float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		sd += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(sd / float64(len(xs)-1))
}

// checkConservation fails unless res's records are each completed or
// dropped exactly once, and every instant a request waits ([Arrival,
// Start)) finds all groups busy. A batch of k requests shares one Start and
// Finish, so each member holds 1/k of a group: counted in units of the
// least common multiple of the batch sizes, the busy groups are exact.
func checkConservation(t *testing.T, res *Result, groups int) {
	t.Helper()
	const unit = 12 // lcm(1, 2, 3, 4): batches of up to four
	type event struct {
		at          float64
		wait, units int
	}
	var events []event
	for id, r := range res.Records {
		switch {
		case r.ID != id:
			t.Fatalf("record %d carries ID %d", id, r.ID)
		case r.Dropped:
			if r.Start != 0 || r.Finish != 0 || r.Batch != 0 {
				t.Fatalf("dropped request %d was served: %+v", id, r)
			}
		case r.Start < r.Arrival || r.Finish <= r.Start || r.Batch < 1 || unit%r.Batch != 0:
			t.Fatalf("request %d is neither completed nor dropped: %+v", id, r)
		default:
			events = append(events,
				event{r.Arrival, 1, 0}, event{r.Start, -1, unit / r.Batch}, event{r.Finish, 0, -unit / r.Batch})
		}
	}
	slices.SortFunc(events, func(a, b event) int { return cmp.Compare(a.at, b.at) })
	waiting, busy := 0, 0
	for i, e := range events {
		waiting += e.wait
		busy += e.units
		if i+1 < len(events) && events[i+1].at == e.at {
			continue // the state holds from the last event at this instant on
		}
		if busy%unit != 0 || busy/unit > groups {
			t.Fatalf("at %v s, %d/%d groups busy", e.at, busy, unit)
		}
		if waiting > 0 && busy/unit < groups {
			t.Fatalf("at %v s, %d requests wait while %d of %d groups are busy", e.at, waiting, busy/unit, groups)
		}
	}
	if waiting != 0 || busy != 0 {
		t.Fatalf("after the last event %d requests wait and %d/%d groups are busy", waiting, busy, unit)
	}
}

// scaleLog records what a Policy is told and answers, call by call: the
// queued IDs, the time and the pick of every Pick, the tenant and seconds
// of every Served.
type scaleLog struct {
	Policy
	calls []policyCall
}

type policyCall struct {
	ids    []int
	now    float64
	pick   int
	tenant string
	secs   float64
}

func (l *scaleLog) Pick(pending []*Request, now float64) int {
	c := policyCall{now: now, pick: l.Policy.Pick(pending, now)}
	for _, r := range pending {
		c.ids = append(c.ids, r.ID)
	}
	l.calls = append(l.calls, c)
	return c.pick
}

func (l *scaleLog) Served(tenant string, seconds float64) {
	l.calls = append(l.calls, policyCall{pick: -1, tenant: tenant, secs: seconds})
	l.Policy.Served(tenant, seconds)
}

// TestReplayScalesWithTime holds the replay to time-scale invariance: with
// every profiled time, every arrival and every SLO target doubled, every
// start, finish and latency doubles exactly, and nothing else moves — the
// batches, the drops and the whole Pick/Served sequence a policy sees, its
// times doubled. Doubling is exact in binary floating point, so each sum,
// product and comparison of the doubled run is the original's, doubled;
// any difference is the replay reading something that does not scale. The
// trace is a contended Poisson stream of testOptions' tenants, replayed
// under fifo, wfq and slo, with and without admission drops.
func TestReplayScalesWithTime(t *testing.T) {
	ctx := context.Background()
	opts := testOptions()
	opts.Requests = 60
	opts.MaxBatch = 3
	opts.Tenants[0].SLOTarget, opts.Tenants[1].SLOTarget = 3e-4, 1e-4
	base, err := prepare(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	stream, err := base.arrivals(1.4)
	if err != nil {
		t.Fatal(err)
	}

	// at builds the workload with every time scaled by s.
	at := func(s float64, maxQueue int) *prepared {
		p := &prepared{opts: base.opts, kernels: base.kernels, profiles: slices.Clone(base.profiles)}
		p.opts.MaxQueue = maxQueue
		for i := range p.profiles {
			p.profiles[i].inS *= s
			p.profiles[i].perS *= s
		}
		p.opts.Tenants = slices.Clone(p.opts.Tenants)
		for i := range p.opts.Tenants {
			p.opts.Tenants[i].SLOTarget *= s
		}
		p.opts.Trace = slices.Clone(stream.reqs)
		for i := range p.opts.Trace {
			p.opts.Trace[i].Arrival *= s
		}
		return p
	}
	run := func(p *prepared, name string) ([]outcome, float64, *scaleLog) {
		t.Helper()
		arr, err := p.arrivals(p.opts.Load)
		if err != nil {
			t.Fatal(err)
		}
		policy, err := NewPolicy(name, p.opts.Tenants)
		if err != nil {
			t.Fatal(err)
		}
		log := &scaleLog{Policy: policy}
		outs, makespan, err := replayOnce(ctx, p, log, arr)
		if err != nil {
			t.Fatal(err)
		}
		return outs, makespan, log
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

	for _, maxQueue := range []int{0, 4} {
		for _, name := range PolicyNames() {
			t.Run(fmt.Sprintf("%s/maxqueue=%d", name, maxQueue), func(t *testing.T) {
				outs, makespan, log := run(at(1, maxQueue), name)
				outs2, makespan2, log2 := run(at(2, maxQueue), name)
				batched, dropped := 0, 0
				for id, o := range outs {
					o2, arrival := outs2[id], stream.reqs[id].Arrival
					if o.dropped || o2.dropped {
						if o.dropped != o2.dropped {
							t.Fatalf("request %d: dropped %v, doubled %v", id, o.dropped, o2.dropped)
						}
						dropped++
						continue
					}
					if !same(o2.start, 2*o.start) || !same(o2.finish, 2*o.finish) ||
						!same(o2.finish-2*arrival, 2*(o.finish-arrival)) {
						t.Fatalf("request %d: start/finish %v/%v, doubled %v/%v", id, o.start, o.finish, o2.start, o2.finish)
					}
					if o2.batch != o.batch || !same(o2.energyUJ, o.energyUJ) {
						t.Fatalf("request %d: batch %d and %v uJ, doubled %d and %v uJ", id, o.batch, o.energyUJ, o2.batch, o2.energyUJ)
					}
					if o.batch > 1 {
						batched++
					}
				}
				if !same(makespan2, 2*makespan) {
					t.Errorf("makespan %v, doubled %v", makespan, makespan2)
				}
				if batched == 0 || (dropped > 0) != (maxQueue > 0) {
					t.Fatalf("%d batched and %d dropped requests under MaxQueue %d: the case does not test what it names",
						batched, dropped, maxQueue)
				}
				if len(log2.calls) != len(log.calls) {
					t.Fatalf("the policy saw %d calls, doubled %d", len(log.calls), len(log2.calls))
				}
				for i, c := range log.calls {
					c2 := log2.calls[i]
					if c2.pick != c.pick || !slices.Equal(c2.ids, c.ids) || c2.tenant != c.tenant ||
						!same(c2.now, 2*c.now) || !same(c2.secs, 2*c.secs) {
						t.Fatalf("policy call %d: %+v, doubled %+v", i, c, c2)
					}
				}
			})
		}
	}
}

// replayOnce replays one cell of p on its own.
func replayOnce(ctx context.Context, p *prepared, policy Policy, arr *arrivals) ([]outcome, float64, error) {
	return p.replay(ctx, policy, arr, new(scratch))
}
