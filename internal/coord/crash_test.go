package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"upim/internal/artifact"
	"upim/internal/engine"
	"upim/internal/explore"
	"upim/internal/prim"
)

// crashSpace mirrors the explore package's resume-test space: three axes
// over two benchmarks at tiny scale = 16 points, enough shards to spread
// over four workers yet quick to simulate.
func crashSpace() *explore.Space {
	s := explore.NewSpace([]string{"VA", "BS"},
		explore.Tasklets(1, 4), explore.LinkScale(1, 2), explore.ILP("base", "D"))
	s.Scale = prim.ScaleTiny
	return s
}

// writeArtifacts renders the full artifact set — summary, both Pareto
// frontiers, best configs, energy — so byte-identity covers every table the
// CLI can emit.
func writeArtifacts(t *testing.T, x *explore.Exploration, dir string) {
	t.Helper()
	energyPareto := x.ParetoTable(explore.GoalEnergy(nil), explore.GoalCost())
	energyPareto.Key = "pathfind-pareto-energy"
	tables := []*artifact.Table{
		x.SummaryTable(), x.ParetoTable(), energyPareto, x.BestTable(3), x.EnergyTable(nil),
	}
	if err := artifact.WriteReport(dir, tables); err != nil {
		t.Fatal(err)
	}
}

// compareDirs asserts two report directories hold byte-identical files.
func compareDirs(t *testing.T, refDir, gotDir string) {
	t.Helper()
	var refFiles []string
	err := filepath.WalkDir(refDir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			rel, _ := filepath.Rel(refDir, path)
			refFiles = append(refFiles, rel)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refFiles) == 0 {
		t.Fatal("reference report is empty")
	}
	for _, rel := range refFiles {
		want, err := os.ReadFile(filepath.Join(refDir, rel))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(gotDir, rel))
		if err != nil {
			t.Fatalf("coordinated report is missing %s: %v", rel, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs between the single-process and coordinated runs", rel)
		}
	}
}

// referenceArtifacts runs the single-process exploration on a fresh store
// and renders its artifacts — the oracle every coordinated run must match
// byte for byte.
func referenceArtifacts(t *testing.T, ctx context.Context, space *explore.Space) string {
	t.Helper()
	refStore, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := explore.New(explore.Options{Parallelism: 4, Store: refStore}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	writeArtifacts(t, ref, refDir)
	return refDir
}

// serve starts the multi-process topology inside the test: the coordinator
// and the result store on one httptest server, composed by Handler exactly
// as `pathfind serve` composes them.
func serve(t *testing.T, space *explore.Space, backend explore.Backend, copts CoordinatorOptions) (*httptest.Server, *Coordinator) {
	t.Helper()
	h, c, err := Handler(space, backend, 0, copts)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	t.Cleanup(srv.Close)
	return srv, c
}

// faultStore is the served store with two faults the crash test drives from
// outside: it tears the tornAt-th exact Put after it lands, and, while a
// hold is armed, it stops the next Put until the test releases it.
type faultStore struct {
	*explore.Store
	tornAt int

	mu      sync.Mutex
	puts    int
	torn    string        // the key whose entry was torn
	arrived chan struct{} // armed hold: closed when the held Put arrives
	release chan struct{} // armed hold: the held Put lands once this closes
}

// holdNextPut arms the hold for the next Put.
func (s *faultStore) holdNextPut() (arrived <-chan struct{}, release chan<- struct{}) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.arrived, s.release = make(chan struct{}), make(chan struct{})
	return s.arrived, s.release
}

func (s *faultStore) Put(key string, p engine.Point, res *prim.Result) error {
	s.mu.Lock()
	arrived, release := s.arrived, s.release
	s.arrived, s.release = nil, nil
	s.mu.Unlock()
	if arrived != nil {
		close(arrived)
		<-release
	}
	if err := s.Store.Put(key, p, res); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.puts++; s.puts == s.tornAt {
		s.torn = key
		return s.Store.CorruptEntry(key)
	}
	return nil
}

// TestCrashResumeByteIdentical is the crash acceptance test, over the served
// topology: remote workers (Work) lease shards over HTTP and write through
// the HTTP store. Four workers are killed one after another, each with its
// first point simulated and stored and its second never started, and one
// stored entry is torn. Their successors drain the space, and the artifacts
// are byte-identical to a single-process exploration, with no simulation
// repeated beyond the one the torn entry forces.
//
// Nothing races a timer. A worker dies when the test cancels it, which it
// does while the store holds that worker's first Put. The coordinator's
// clock stands still until all four are dead, then jumps past the TTL: the
// dead workers' leases expire then, and no live worker's lease ever does.
func TestCrashResumeByteIdentical(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	total := len(pts)
	if total != 16 {
		t.Fatalf("space has %d points, want 16", total)
	}
	refDir := referenceArtifacts(t, ctx, space)

	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	faulty := &faultStore{Store: store, tornAt: 3}
	const ttl = 150 * time.Millisecond
	var skew atomic.Int64
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	var coordEvents bytes.Buffer
	srv, c := serve(t, space, faulty, CoordinatorOptions{
		ShardSize: 2, // 8 shards: each killed worker leaves one half done
		TTL:       ttl,
		Now:       func() time.Time { return epoch.Add(time.Duration(skew.Load())) },
		Events:    NewLog(&coordEvents),
	})
	work := func(ctx context.Context, name string, events *bytes.Buffer) error {
		return Work(ctx, WorkOptions{
			Connect: srv.URL,
			Name:    name,
			Poll:    5 * time.Millisecond,
			Events:  events,
			Client:  ClientOptions{Timeout: 10 * time.Second, Backoff: 5 * time.Millisecond},
		})
	}

	// Kill w0..w3 one at a time, each while the store holds its first Put.
	logs := map[string]*bytes.Buffer{}
	for i := range 4 {
		name, log := fmt.Sprintf("w%d", i), &bytes.Buffer{}
		logs[name] = log
		wctx, kill := context.WithCancel(ctx)
		arrived, release := faulty.holdNextPut()
		done := make(chan error, 1)
		go func() { done <- work(wctx, name, log) }()
		select {
		case <-arrived:
		case err := <-done:
			kill()
			t.Fatalf("worker %s returned before its first Put: %v", name, err)
		}
		kill()
		close(release)
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("killed worker %s returned %v, want context.Canceled", name, err)
		}
	}

	// The dead workers' leases expire; their successors drain the space.
	skew.Store(int64(2 * ttl))
	errs := make([]error, 4)
	var wg sync.WaitGroup
	for i := range errs {
		name, log := fmt.Sprintf("w%d.r1", i), &bytes.Buffer{}
		logs[name] = log
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = work(ctx, name, log)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("successor w%d.r1: %v", i, err)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done after every successor returned")
	}
	srv.Close() // every handler has returned: the coordinator's log is complete

	// The merge over the store the workers filled.
	x, err := explore.New(explore.Options{Store: store}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if len(x.Outcomes) != total || x.Failed != 0 {
		t.Fatalf("merge: %d outcomes, %d failed", len(x.Outcomes), x.Failed)
	}

	// The artifacts are byte-identical to the single-process oracle.
	gotDir := t.TempDir()
	writeArtifacts(t, x, gotDir)
	compareDirs(t, refDir, gotDir)

	// The torn write was detected (counted), not silently trusted.
	if got := store.Stats().Corrupt; got < 1 {
		t.Errorf("store corrupt counter = %d, want >= 1 (the torn write must be detected)", got)
	}

	workerEvs := map[string][]Event{}
	for name, log := range logs {
		if workerEvs[name], err = ParseEvents(log); err != nil {
			t.Fatal(err)
		}
	}
	coordEvs, err := ParseEvents(&coordEvents)
	if err != nil {
		t.Fatal(err)
	}

	// Each killed worker leased one shard, worked half of it, never completed
	// it, lost it to expiry, and a successor completed it.
	granted := map[string][]int{} // worker -> shards granted
	expired := map[int]string{}   // shard -> worker whose lease expired
	completed := map[int]string{} // shard -> worker that completed it
	for _, e := range coordEvs {
		switch e.Type {
		case EventLeaseGrant:
			granted[e.Worker] = append(granted[e.Worker], e.Shard)
		case EventLeaseExpire:
			if prev, ok := expired[e.Shard]; ok {
				t.Errorf("shard %d expired twice (%s, then %s)", e.Shard, prev, e.Worker)
			}
			expired[e.Shard] = e.Worker
		case EventLeaseComplete:
			completed[e.Shard] = e.Worker
		}
	}
	if len(expired) != 4 {
		t.Errorf("%d leases expired, want exactly the 4 killed workers': %v", len(expired), expired)
	}
	for i := range 4 {
		name := fmt.Sprintf("w%d", i)
		if len(granted[name]) != 1 {
			t.Errorf("killed worker %s was granted shards %v, want exactly one", name, granted[name])
			continue
		}
		shard := granted[name][0]
		if expired[shard] != name {
			t.Errorf("shard %d of killed worker %s: lease expired for %q", shard, name, expired[shard])
		}
		if w := completed[shard]; !strings.HasSuffix(w, ".r1") {
			t.Errorf("shard %d of killed worker %s was completed by %q, want a successor", shard, name, w)
		}
		points := 0
		for _, e := range workerEvs[name] {
			if strings.HasPrefix(e.Type, "point_") {
				points++
			}
		}
		if points != 1 {
			t.Errorf("killed worker %s resolved %d points of its two-point shard, want 1", name, points)
		}
	}

	// Every key is simulated exactly once, except the torn key, which is
	// simulated exactly once more.
	simsByKey := map[string]int{}
	for _, evs := range workerEvs {
		for _, e := range evs {
			if e.Type == EventPointSimulated {
				simsByKey[e.Key]++
			}
		}
	}
	for _, o := range x.Outcomes {
		if !o.Cached {
			simsByKey[o.Key]++
		}
	}
	if faulty.torn == "" {
		t.Fatal("no store write was torn")
	}
	if len(simsByKey) != total {
		t.Errorf("%d distinct keys simulated, want %d", len(simsByKey), total)
	}
	for key, n := range simsByKey {
		want := 1
		if key == faulty.torn {
			want = 2
		}
		if n != want {
			t.Errorf("key %.12s... simulated %d times, want %d (torn: %v)", key, n, want, key == faulty.torn)
		}
	}
}

// TestRunFinalProgress pins the progress in-process Run streams: its final
// snapshot has every point done, every shard complete, and the store's
// corrupt-entry count, here from an entry torn before the run.
func TestRunFinalProgress(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	o := explore.New(explore.Options{Store: store}).Resolve(ctx, pts[0], 0, nil)
	if o.Err != nil {
		t.Fatal(o.Err)
	}
	if err := store.CorruptEntry(o.Key); err != nil {
		t.Fatal(err)
	}
	var last Progress
	snapshots := 0
	x, _, err := Run(ctx, space, Options{
		Workers:   4,
		ShardSize: 2,
		Store:     store,
		OnProgress: func(p Progress) {
			last = p
			snapshots++
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if x.Failed != 0 {
		t.Fatalf("%d points failed", x.Failed)
	}
	if snapshots == 0 {
		t.Fatal("no progress snapshots streamed")
	}
	if last.Done != len(pts) || !last.Coordination.AllDone || last.Corrupt < 1 {
		t.Errorf("final progress = %+v, want all %d points done with the corruption surfaced", last, len(pts))
	}
}

// TestCoordinatedTieredByteIdentical pins the two-tier coordinated path:
// workers resolve out-of-band points at estimate fidelity from the shared
// band plan, and the artifacts still match a single-process ExploreTiered.
func TestCoordinatedTieredByteIdentical(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	topts := explore.TieredOptions{Band: 0.25}

	refStore, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ref, refTri, err := explore.New(explore.Options{Parallelism: 4, Store: refStore}).ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	refDir := t.TempDir()
	writeArtifacts(t, ref, refDir)

	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	x, tri, err := Run(ctx, space, Options{
		Workers:   3,
		ShardSize: 2,
		Store:     store,
		Tiered:    &topts,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tri == nil || tri.Band != refTri.Band || tri.EstimateOnly != refTri.EstimateOnly {
		t.Fatalf("coordinated triage %+v, reference %+v", tri, refTri)
	}
	gotDir := t.TempDir()
	writeArtifacts(t, x, gotDir)
	compareDirs(t, refDir, gotDir)
}

// TestHTTPWorkersByteIdentical runs the full multi-process topology
// in-process: a served coordinator + store on one address, remote workers
// speaking the lease protocol and the HTTP store, and a final merge over the
// local store — still byte-identical to the single-process oracle.
func TestHTTPWorkersByteIdentical(t *testing.T) {
	ctx := context.Background()
	space := crashSpace()
	refDir := referenceArtifacts(t, ctx, space)

	store, err := explore.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	srv, c := serve(t, space, store, CoordinatorOptions{ShardSize: 3, TTL: 5 * time.Second})

	copts := ClientOptions{Timeout: 10 * time.Second, Backoff: 5 * time.Millisecond}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = Work(ctx, WorkOptions{
				Connect: srv.URL,
				Name:    []string{"remote0", "remote1"}[i],
				Poll:    5 * time.Millisecond,
				Client:  copts,
			})
		}(i)
	}
	wg.Wait()
	for i, werr := range errs {
		if werr != nil {
			t.Fatalf("remote worker %d: %v", i, werr)
		}
	}
	if !c.Done() {
		t.Fatal("coordinator not done after both workers returned")
	}

	// The merge over the worker-populated store: all hits, no simulation.
	x, err := explore.New(explore.Options{Store: store}).Explore(ctx, space)
	if err != nil {
		t.Fatal(err)
	}
	if x.Hits != len(pts) || x.Simulated != 0 {
		t.Fatalf("merge: %d hits, %d simulated; remote workers should have filled the store", x.Hits, x.Simulated)
	}
	gotDir := t.TempDir()
	writeArtifacts(t, x, gotDir)
	compareDirs(t, refDir, gotDir)
}

// TestSpaceSpecRoundTrip pins the wire spec: a served space reconstructs to
// the same deterministic point enumeration, and constrained spaces are
// refused rather than silently mis-sharded.
func TestSpaceSpecRoundTrip(t *testing.T) {
	space := crashSpace()
	spec, err := SpecFor(space, 42)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Watchdog != 42 {
		t.Fatalf("spec watchdog = %d", spec.Watchdog)
	}
	back, err := spec.Space()
	if err != nil {
		t.Fatal(err)
	}
	want, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	got, err := back.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("round-tripped space has %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Design != want[i].Design || got[i].Benchmark != want[i].Benchmark ||
			explore.KeyOf(got[i].EP) != explore.KeyOf(want[i].EP) {
			t.Fatalf("point %d diverged: %s/%s vs %s/%s", i,
				got[i].Benchmark, got[i].Design, want[i].Benchmark, want[i].Design)
		}
	}

	constrained := crashSpace().Constrain(func(p explore.Point) bool { return p.Cost < 2 })
	if _, err := SpecFor(constrained, 0); err == nil {
		t.Fatal("SpecFor accepted a constrained space")
	}
}
