package explore

import (
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"upim/internal/prim"
)

// TestOnOutcomeIsSerialized pins the observer contract now that every point
// resolves on the pool: OnOutcome is entered by one goroutine at a time and
// sees each recorded outcome exactly once, as recorded, cached or simulated,
// in an exhaustive and in a two-tier run. The flag and counters are plain
// values on purpose — under -race a second concurrent entry is a reported
// data race.
func TestOnOutcomeIsSerialized(t *testing.T) {
	ctx := context.Background()
	for _, tiered := range []bool{false, true} {
		t.Run(map[bool]string{false: "explore", true: "tiered"}[tiered], func(t *testing.T) {
			store, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			for pass, wantCached := range []bool{false, true} {
				var seen []Outcome
				inside := false
				ex := New(Options{Parallelism: 8, Store: store, OnOutcome: func(o Outcome) {
					if inside {
						t.Error("OnOutcome entered concurrently")
					}
					inside = true
					seen = append(seen, o)
					if o.Cached != wantCached && o.Fidelity == FidelityExact {
						t.Errorf("pass %d: outcome %d cached = %v", pass, o.Index, o.Cached)
					}
					inside = false
				}})
				var x *Exploration
				if tiered {
					x, _, err = ex.ExploreTiered(ctx, resumeSpace(), TieredOptions{Band: acceptanceSlack})
				} else {
					x, err = ex.Explore(ctx, resumeSpace())
				}
				if err != nil {
					t.Fatal(err)
				}
				if len(seen) != len(x.Outcomes) {
					t.Fatalf("pass %d: OnOutcome ran %d times for %d points", pass, len(seen), len(x.Outcomes))
				}
				once := make([]bool, len(x.Outcomes))
				for _, o := range seen {
					if once[o.Index] {
						t.Fatalf("pass %d: outcome %d observed twice", pass, o.Index)
					}
					once[o.Index] = true
					if r := x.Outcomes[o.Index]; o.Key != r.Key || o.Fidelity != r.Fidelity || o.Result != r.Result {
						t.Fatalf("pass %d: observed outcome %d differs from the recorded one", pass, o.Index)
					}
				}
			}
		})
	}
}

// TestCancelledRunKeepsEveryOutcomeIdentified pins what a cancelled run
// still owes its caller: every outcome — finished or never started — carries
// its point, index and key (SummaryTable renders SKIP rows from them), and
// the outcomes recorded and observed are exactly the points the store holds,
// so Simulated equals the store's count.
func TestCancelledRunKeepsEveryOutcomeIdentified(t *testing.T) {
	space := resumeSpace()
	pts, err := space.Points()
	if err != nil {
		t.Fatal(err)
	}
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	observed := make([]bool, len(pts))
	seen := 0
	x, err := New(Options{Parallelism: 4, Store: store, Watchdog: 1 << 40, OnOutcome: func(o Outcome) {
		observed[o.Index] = true
		if seen++; seen == 3 {
			cancel()
		}
	}}).Explore(ctx, space)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run error = %v, want context.Canceled", err)
	}
	skipped := 0
	for i, o := range x.Outcomes {
		ep := pts[i].EP
		ep.Watchdog = 1 << 40
		if o.Index != i || o.Point.Design != pts[i].Design || o.Point.Benchmark != pts[i].Benchmark || o.Key != KeyOf(ep) {
			t.Fatalf("outcome %d of the cancelled run is {index %d, %s %q, key %q}", i, o.Index, o.Point.Benchmark, o.Point.Design, o.Key)
		}
		if o.Result == nil {
			skipped++
			if !errors.Is(o.Err, context.Canceled) {
				t.Fatalf("skipped outcome %d error = %v", i, o.Err)
			}
		}
		// The recorded outcomes are exactly the points the store holds.
		if _, held := store.Get(o.Key); held != observed[i] || held != (o.Result != nil) {
			t.Fatalf("point %d: stored %v, observed %v, result %v", i, held, observed[i], o.Result != nil)
		}
	}
	if skipped == 0 {
		t.Fatal("the cancellation skipped nothing; the test needs a partial run")
	}
	n, err := store.Count()
	if err != nil {
		t.Fatal(err)
	}
	if x.Simulated != n || x.Simulated != len(pts)-skipped {
		t.Fatalf("cancelled run counted %d simulated, %d outcomes hold results, store holds %d", x.Simulated, len(pts)-skipped, n)
	}
	if rows := len(x.SummaryTable().Rows); rows != len(pts) {
		t.Fatalf("summary of the cancelled run has %d rows, want %d", rows, len(pts))
	}
}

// slowStore delays every Get and records how many were in flight at once.
type slowStore struct {
	Backend
	inFlight, peak atomic.Int64
}

func (s *slowStore) Get(key string) (*prim.Result, bool) {
	n := s.inFlight.Add(1)
	for p := s.peak.Load(); n > p && !s.peak.CompareAndSwap(p, n); p = s.peak.Load() {
	}
	time.Sleep(2 * time.Millisecond)
	defer s.inFlight.Add(-1)
	return s.Backend.Get(key)
}

// TestLookupsRunOnThePool pins where store reads happen: Parallelism lookups
// are in flight at a time (what hides an HTTP store's round trips), and a
// one-worker explorer still reads one entry at a time.
func TestLookupsRunOnThePool(t *testing.T) {
	ctx := context.Background()
	space := resumeSpace()
	store, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Store: store}).Explore(ctx, space); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		parallelism int
		ok          func(peak int64) bool
		want        string
	}{
		{4, func(p int64) bool { return p >= 2 && p <= 4 }, "2 to 4"},
		{1, func(p int64) bool { return p == 1 }, "exactly 1"},
	} {
		slow := &slowStore{Backend: store}
		x, err := New(Options{Parallelism: c.parallelism, Store: slow}).Explore(ctx, space)
		if err != nil {
			t.Fatal(err)
		}
		if x.Hits != len(x.Outcomes) {
			t.Fatalf("parallelism %d: %d hits of %d points", c.parallelism, x.Hits, len(x.Outcomes))
		}
		if peak := slow.peak.Load(); !c.ok(peak) {
			t.Errorf("parallelism %d: %d lookups in flight at the peak, want %s", c.parallelism, peak, c.want)
		}
	}
}

// TestUnreadableEntryIsCorruptNotAbsent pins the read-error classification:
// only a key no segment holds is a clean miss. A record the index holds but
// that cannot be read back — its segment cut below it after this handle
// scanned it stands in for EIO or a file truncated by hand — misses AND
// counts as corrupt, once, so the CLI's store-health line can fire.
func TestUnreadableEntryIsCorruptNotAbsent(t *testing.T) {
	dir := t.TempDir()
	writer, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	pts, err := resumeSpace().Points()
	if err != nil {
		t.Fatal(err)
	}
	ep := pts[0].EP
	key := KeyOf(ep)
	if err := writer.Put(key, ep, &prim.Result{Benchmark: ep.Benchmark, DPUs: ep.DPUs}); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(KeyOf(pts[1].EP)); ok {
		t.Fatal("a key never put was served")
	}
	if got := st.Stats(); got.Misses != 1 || got.Corrupt != 0 {
		t.Fatalf("absent entry: %+v, want one clean miss", got)
	}
	k, _ := parseKey(key)
	l, ok := st.lookup(k)
	if !ok {
		t.Fatal("the put record is not indexed")
	}
	if err := os.Truncate(l.seg.path, l.off+recHeaderLen); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("a truncated record was served")
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("a truncated record was served on the second read")
	}
	if got := st.Stats(); got.Misses != 3 || got.Corrupt != 1 {
		t.Fatalf("unreadable entry: %+v, want 3 misses of which 1 corrupt", got)
	}
}

// TestResumedTieredRunWritesNothing: a two-tier run stores only its exact
// records, and a resumed pass over an unchanged store leaves every file's
// bytes and mtime untouched, creates none and performs no Put.
func TestResumedTieredRunWritesNothing(t *testing.T) {
	ctx := context.Background()
	space := NewSpace([]string{"VA"}, Tasklets(1, 4, 16), LinkScale(1, 2), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny
	topts := TieredOptions{Band: acceptanceSlack}
	dir := t.TempDir()
	store, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, _, err := New(Options{Parallelism: 4, Store: store}).ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if first.Estimated == 0 || first.Simulated == 0 {
		t.Fatalf("test space needs both fidelities, got %d estimated, %d simulated", first.Estimated, first.Simulated)
	}
	type file struct {
		data  []byte
		mtime time.Time
	}
	snapshot := func() map[string]file {
		files := map[string]file{}
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			info, err := d.Info()
			files[path] = file{data, info.ModTime()}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return files
	}
	before := snapshot()
	if len(before) != 1 {
		t.Fatalf("one handle wrote %d files, want its one segment", len(before))
	}
	// Far enough past the filesystem's timestamp granularity that a rewrite
	// could not hide behind an equal mtime.
	time.Sleep(20 * time.Millisecond)

	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _, err := New(Options{Parallelism: 4, Store: reopened}).ExploreTiered(ctx, space, topts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Simulated != 0 || resumed.Estimated != first.Estimated {
		t.Fatalf("resumed pass: %d simulated, %d estimated (first pass estimated %d)", resumed.Simulated, resumed.Estimated, first.Estimated)
	}
	if puts := reopened.Stats().Puts; puts != 0 {
		t.Fatalf("resumed pass over an unchanged store performed %d entry writes", puts)
	}
	after := snapshot()
	if len(after) != len(before) {
		t.Fatalf("the resumed pass left %d files where there were %d", len(after), len(before))
	}
	for path, is := range after {
		if was := before[path]; string(is.data) != string(was.data) || !is.mtime.Equal(was.mtime) {
			t.Fatalf("%s was written by the resumed pass", path)
		}
	}

	// The store records the exact tier only: an estimate-fidelity point
	// leaves no record at all, every exact one is served.
	for _, o := range first.Outcomes {
		_, exact := reopened.Get(o.Key)
		_, est := reopened.GetEstimate(o.Key)
		if est || exact != (o.Fidelity == FidelityExact) {
			t.Fatalf("%s (%s): stored exact=%v estimate=%v", o.Point.Design, o.Fidelity, exact, est)
		}
	}
}
