package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"upim"
	"upim/internal/engine"
	"upim/internal/estimate"
	"upim/internal/prim"
)

// span is one timed call the harness made into the program. Spans are kept
// in memory and flushed (as Chrome-trace JSON) only when the run ends.
type span struct {
	name       string
	parent     int // index into tracer.spans, -1 for a repetition's root
	start, end time.Duration
}

// tracer records spans from the harness's own call sites and from the
// outside-in decorators below. A nil *tracer records nothing, so untraced
// repetitions run the same code with the recording compiled to a nil check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	// Decorator counters of the current repetition.
	storeOps, cached, simulated, picks, served atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// resetCounts zeroes the decorator counters before a traced repetition.
func (t *tracer) resetCounts() {
	for _, c := range []*atomic.Int64{&t.storeOps, &t.cached, &t.simulated, &t.picks, &t.served} {
		c.Store(0)
	}
}

// begin opens a span under parent and returns its id (-1 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, parent: parent, start: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// call wraps one call into the program in a span.
func (t *tracer) call(name string, parent int, f func(id int) error) error {
	id := t.begin(name, parent)
	defer t.end(id)
	return f(id)
}

type interval struct{ lo, hi time.Duration }

// unionLen is the total length of the union of ivs, clipped to [lo, hi].
func unionLen(ivs []interval, lo, hi time.Duration) time.Duration {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv.lo, cur), min(iv.hi, hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// subtract returns iv minus the union of holes.
func subtract(iv interval, holes []interval) []interval {
	sort.Slice(holes, func(i, j int) bool { return holes[i].lo < holes[j].lo })
	var out []interval
	cur := iv.lo
	for _, h := range holes {
		if h.lo > cur {
			out = append(out, interval{cur, min(h.lo, iv.hi)})
		}
		cur = max(cur, h.hi)
		if cur >= iv.hi {
			break
		}
	}
	if cur < iv.hi {
		out = append(out, interval{cur, iv.hi})
	}
	return out
}

// selfShares attributes the repetition rooted at span root to span names: a
// span's self time is its interval minus the part its children cover, and a
// name's share is the union of its spans' self intervals over the root's
// duration — a union, so two workers inside `work` at once count once. The
// root's own self time is what no named span covers.
func (t *tracer) selfShares(root int) (shares map[string]float64, unattributed float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]interval{}
	inRep := map[int]bool{root: true}
	for i := root + 1; i < len(t.spans); i++ {
		s := t.spans[i]
		if inRep[s.parent] {
			inRep[i] = true
			children[s.parent] = append(children[s.parent], interval{s.start, s.end})
		}
	}
	r := t.spans[root]
	dur := float64(r.end - r.start)
	self := map[string][]interval{}
	for i := range inRep {
		s := t.spans[i]
		self[s.name] = append(self[s.name], subtract(interval{s.start, s.end}, children[i])...)
	}
	shares = map[string]float64{}
	for name, ivs := range self {
		shares[name] = float64(unionLen(ivs, r.start, r.end)) / dur
	}
	unattributed = shares[r.name]
	delete(shares, r.name)
	return shares, unattributed
}

// writeChrome flushes every span as Chrome-trace "complete" events; a span's
// root ancestor picks its thread row so repetitions stack separately.
func (t *tracer) writeChrome(path, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		root := i
		for t.spans[root].parent >= 0 {
			root = t.spans[root].parent
		}
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: root,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"workload": workload, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	data, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// tracedBackend is the outside-in decorator over a result store: every
// operation becomes a `store` span under the call that owns the store.
type tracedBackend struct {
	upim.StoreBackend
	t      *tracer
	parent int
}

// traceStore wraps b when tracing; untraced runs use b directly.
func traceStore(t *tracer, parent int, b upim.StoreBackend) upim.StoreBackend {
	if t == nil {
		return b
	}
	return &tracedBackend{b, t, parent}
}

func (b *tracedBackend) op() func() {
	b.t.storeOps.Add(1)
	id := b.t.begin("store", b.parent)
	return func() { b.t.end(id) }
}

func (b *tracedBackend) Get(key string) (*prim.Result, bool) {
	defer b.op()()
	return b.StoreBackend.Get(key)
}

func (b *tracedBackend) GetEstimate(key string) (*estimate.Estimate, bool) {
	defer b.op()()
	return b.StoreBackend.GetEstimate(key)
}

func (b *tracedBackend) Put(key string, p engine.Point, res *prim.Result) error {
	defer b.op()()
	return b.StoreBackend.Put(key, p, res)
}

func (b *tracedBackend) PutEstimate(key string, p engine.Point, est *estimate.Estimate) error {
	defer b.op()()
	return b.StoreBackend.PutEstimate(key, p, est)
}

// onOutcome is the ExploreOptions.OnOutcome decorator: it counts cached and
// simulated points as they complete.
func (t *tracer) onOutcome() func(upim.ExploreOutcome) {
	if t == nil {
		return nil
	}
	return func(o upim.ExploreOutcome) {
		if o.Cached {
			t.cached.Add(1)
		} else if o.Result != nil {
			t.simulated.Add(1)
		}
	}
}

// tracedPolicy is the decorator over a serve scheduling policy.
type tracedPolicy struct {
	upim.SchedulingPolicy
	t *tracer
}

func (p tracedPolicy) Pick(pending []*upim.ServeRequest, now float64) int {
	p.t.picks.Add(1)
	return p.SchedulingPolicy.Pick(pending, now)
}

func (p tracedPolicy) Served(tenant string, seconds float64) {
	p.t.served.Add(1)
	p.SchedulingPolicy.Served(tenant, seconds)
}

// tracedHandler is the decorator at the coordinator's HTTP boundary: store
// requests and lease-protocol requests become `http_store` and `http_lease`
// spans, the only view of the round trips upim.Work makes internally.
func tracedHandler(t *tracer, parent int, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "http_lease"
		if p := r.URL.Path; strings.HasPrefix(p, "/v1/exact/") || strings.HasPrefix(p, "/v1/estimate/") {
			name = "http_store"
		}
		id := t.begin(name, parent)
		h.ServeHTTP(w, r)
		t.end(id)
	})
}
