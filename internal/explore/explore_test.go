package explore

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"upim/internal/config"
	"upim/internal/engine"
	"upim/internal/host"
	"upim/internal/prim"
	"upim/internal/stats"
)

func TestParseAxes(t *testing.T) {
	axes, err := ParseAxes("tasklets=1,4,16; ilp=base,D,DRSF ;link=1,2,4;mode=scratchpad,cache;freq=350,700;dpus=1,4")
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		name   string
		levels int
	}{
		{"tasklets", 3}, {"ilp", 3}, {"link", 3}, {"mode", 2}, {"freq", 2}, {"dpus", 2},
	}
	if len(axes) != len(want) {
		t.Fatalf("axes = %d, want %d", len(axes), len(want))
	}
	for i, w := range want {
		if axes[i].Name != w.name || len(axes[i].Levels) != w.levels {
			t.Errorf("axis %d = %s/%d, want %s/%d", i, axes[i].Name, len(axes[i].Levels), w.name, w.levels)
		}
	}
}

func TestParseAxesErrors(t *testing.T) {
	for _, spec := range []string{
		"",
		"tasklets",
		"tasklets=",
		"tasklets=0",
		"tasklets=sixteen",
		"freq=333",
		"ilp=DX",
		"ilp=DD",
		"mode=vliw",
		"warp=1,2",
	} {
		if _, err := ParseAxes(spec); err == nil {
			t.Errorf("ParseAxes(%q) accepted", spec)
		}
	}
}

func TestSpacePointsConstrained(t *testing.T) {
	s := NewSpace([]string{"VA", "GEMV"}, Tasklets(4, 16), Modes(config.ModeScratchpad, config.ModeSIMT))
	s.Scale = prim.ScaleTiny
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	// VA has no SIMT kernel: its 2 SIMT combos are constrained out.
	// GEMV keeps all 4. Size() still reports the unconstrained 8.
	if s.Size() != 8 {
		t.Fatalf("Size = %d, want 8", s.Size())
	}
	if len(pts) != 6 {
		t.Fatalf("points = %d, want 6", len(pts))
	}
	for _, p := range pts {
		if p.EP.Config.Mode == config.ModeSIMT {
			if p.Benchmark != "GEMV" {
				t.Errorf("SIMT point leaked for %s", p.Benchmark)
			}
			// Under SIMT the tasklets level counts warps.
			wantLanes := map[string]int{"4": 4 * 16, "16": 16 * 16}[p.Labels[0]]
			if p.EP.Config.NumTasklets != wantLanes {
				t.Errorf("%s: SIMT tasklets = %d, want %d", p.Design, p.EP.Config.NumTasklets, wantLanes)
			}
		}
	}
	if got := pts[0].Design; got != "tasklets=4 mode=scratchpad" {
		t.Fatalf("design label = %q", got)
	}

	// Declaring the mode axis before the tasklets axis must not change the
	// SIMT lane expansion (warps x SIMTWidth happens after all axes apply).
	rev := NewSpace([]string{"GEMV"}, Modes(config.ModeSIMT), Tasklets(4))
	revPts, err := rev.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(revPts) != 1 || revPts[0].EP.Config.NumTasklets != 4*16 {
		t.Fatalf("mode-first SIMT point = %+v, want 64 lanes", revPts[0].EP.Config.NumTasklets)
	}
}

func TestSpaceFiltersInvalidConfigs(t *testing.T) {
	bad := NewAxis("revolver", Level{
		Label: "11",
		Apply: func(p *engine.Point) {},
	}, Level{
		Label: "0",
		Apply: func(p *engine.Point) { p.Config.RevolverCycles = 0 },
	})
	s := NewSpace([]string{"VA"}, bad)
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 1 || pts[0].Labels[0] != "11" {
		t.Fatalf("invalid config not filtered: %+v", pts)
	}

	s.Constrain(func(p Point) bool { return false })
	pts, err = s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 0 {
		t.Fatalf("user constraint ignored: %d points", len(pts))
	}

	// An ILP feature the SIMT engine does not model is an invalid config, not
	// a second store key and hardware cost for the same simulated machine.
	simt, err := ParseAxes("mode=scratchpad,simt;ilp=base,D")
	if err != nil {
		t.Fatal(err)
	}
	pts, err = NewSpace([]string{"GEMV"}, simt...).Points()
	if err != nil {
		t.Fatal(err)
	}
	var designs []string
	for _, p := range pts {
		designs = append(designs, p.Design)
	}
	if want := "mode=scratchpad ilp=base|mode=scratchpad ilp=D|mode=simt ilp=base"; strings.Join(designs, "|") != want {
		t.Fatalf("designs = %q, want %q", designs, want)
	}
}

func TestSpaceErrors(t *testing.T) {
	if _, err := NewSpace(nil).Points(); err == nil {
		t.Error("empty benchmark list accepted")
	}
	if _, err := NewSpace([]string{"NOPE"}).Points(); !errors.Is(err, prim.ErrUnknownBenchmark) {
		t.Errorf("unknown benchmark error = %v", err)
	}
	if _, err := NewSpace([]string{"VA"}, Tasklets(1), Tasklets(2)).Points(); err == nil || !strings.Contains(err.Error(), "duplicate axis") {
		t.Errorf("duplicate axis error = %v", err)
	}
}

func TestKeyOfDiscriminates(t *testing.T) {
	base := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	k := KeyOf(base)
	if k != KeyOf(base) {
		t.Fatal("key not stable")
	}
	variants := []func(*engine.Point){
		func(p *engine.Point) { p.Benchmark = "BS" },
		func(p *engine.Point) { p.DPUs = 2 },
		func(p *engine.Point) { p.Scale = prim.ScaleSmall },
		func(p *engine.Point) { p.Watchdog = 1 },
		func(p *engine.Point) { p.Config.NumTasklets = 4 },
		func(p *engine.Point) { p.Config.LinkBytesPerCycle = 4 },
		func(p *engine.Point) { p.Config.Mode = config.ModeCache },
	}
	seen := map[string]bool{k: true}
	for i, mutate := range variants {
		p := base
		mutate(&p)
		kk := KeyOf(p)
		if seen[kk] {
			t.Errorf("variant %d collides", i)
		}
		seen[kk] = true
	}
}

// TestKeyOfMatchesPlainMarshal pins the pooled encoder to json.Marshal's
// byte form: content addresses must not change when the encode path does, or
// every existing store silently loses its entries.
func TestKeyOfMatchesPlainMarshal(t *testing.T) {
	p := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 2, Scale: prim.ScaleSmall, Watchdog: 7}
	rec := struct {
		Format int          `json:"format"`
		Point  engine.Point `json:"point"`
	}{storeFormat, p}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if want := hex.EncodeToString(sum[:]); KeyOf(p) != want {
		t.Fatalf("KeyOf = %s, want the json.Marshal-based address %s", KeyOf(p), want)
	}
	// Concurrent hashing exercises the buffer pool (go test -race).
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				if KeyOf(p) != hex.EncodeToString(sum[:]) {
					panic("pooled KeyOf diverged")
				}
			}
		}()
	}
	wg.Wait()
}

func TestStoreRoundTripExact(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1, Scale: prim.ScaleTiny}
	key := KeyOf(ep)
	res := &prim.Result{
		Benchmark: "VA",
		Tasklets:  16,
		DPUs:      1,
		Report: host.Report{
			KernelSeconds:   0.1 + 0.2, // deliberately non-representable
			TransferSeconds: [3]float64{1.0 / 3.0, 2e-9, 0},
			Launches:        3,
			BytesIn:         1 << 62, // beyond float64's integer range
			BytesOut:        7,
		},
		Stats:  stats.DPU{Cycles: 123456789, Instructions: 42, IssueSlots: 0.3},
		PerDPU: []stats.DPU{{Cycles: 99, Timeline: []float32{1.5, 2.25}}},
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("empty store hit")
	}
	if err := st.Put(key, ep, res); err != nil {
		t.Fatal(err)
	}
	got, ok := st.Get(key)
	if !ok {
		t.Fatal("stored entry missed")
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("round trip changed the result:\ngot  %+v\nwant %+v", got, res)
	}
	s := st.Stats()
	if s.Hits != 1 || s.Misses != 1 || s.Puts != 1 || s.Corrupt != 0 {
		t.Fatalf("stats = %+v", s)
	}
	if n, err := st.Count(); err != nil || n != 1 {
		t.Fatalf("count = %d, %v", n, err)
	}
}

func TestStoreCorruptEntryIsAMiss(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ep := engine.Point{Benchmark: "VA", Config: config.Default(), DPUs: 1}
	key := KeyOf(ep)
	if err := st.Put(key, ep, &prim.Result{Benchmark: "VA"}); err != nil {
		t.Fatal(err)
	}
	if err := st.CorruptEntry(key); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Get(key); ok {
		t.Fatal("corrupt entry served")
	}
	if st.Stats().Corrupt != 1 {
		t.Fatalf("stats = %+v", st.Stats())
	}
	// A handle that indexes the damaged record afresh refuses it too.
	reopened, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := reopened.Get(key); ok || reopened.Stats().Corrupt != 1 {
		t.Fatalf("reopened store: served=%v stats=%+v", ok, reopened.Stats())
	}
	// A nil store is inert.
	var nilStore *Store
	if _, ok := nilStore.Get(key); ok {
		t.Fatal("nil store hit")
	}
	if err := nilStore.Put(key, ep, &prim.Result{}); err != nil {
		t.Fatal(err)
	}
}

func TestParetoFrontier(t *testing.T) {
	mk := func(cost, total float64) Outcome {
		return Outcome{
			Point:  Point{Cost: cost},
			Result: &prim.Result{Report: host.Report{KernelSeconds: total}},
		}
	}
	outs := []Outcome{
		mk(0, 10),                 // frontier: cheapest
		mk(1, 5),                  // frontier
		mk(1, 6),                  // dominated by (1,5)
		mk(2, 5),                  // dominated by (1,5)
		mk(3, 1),                  // frontier: fastest
		{Err: errors.New("boom")}, // excluded
		{},                        // no result: excluded
	}
	front := Pareto(outs, GoalTime(), GoalCost())
	if len(front) != 3 {
		t.Fatalf("frontier size = %d, want 3: %+v", len(front), front)
	}
	wantCosts := []float64{0, 1, 3}
	for i, o := range front {
		if o.Point.Cost != wantCosts[i] {
			t.Errorf("frontier[%d].Cost = %g, want %g", i, o.Point.Cost, wantCosts[i])
		}
	}
}

func TestExplorerServesRepeatRunsFromStore(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	space := NewSpace([]string{"VA"}, Tasklets(1, 2))
	space.Scale = prim.ScaleTiny

	x1, err := New(Options{Parallelism: 2, Store: st}).Explore(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if x1.Simulated != 2 || x1.Hits != 0 {
		t.Fatalf("first run: %d simulated, %d hits", x1.Simulated, x1.Hits)
	}

	// A fresh explorer over the same store re-simulates nothing.
	x2, err := New(Options{Parallelism: 2, Store: st}).Explore(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if x2.Simulated != 0 || x2.Hits != 2 {
		t.Fatalf("second run: %d simulated, %d hits", x2.Simulated, x2.Hits)
	}
	for i := range x2.Outcomes {
		if !x2.Outcomes[i].Cached {
			t.Errorf("outcome %d not cached", i)
		}
		if !reflect.DeepEqual(x1.Outcomes[i].Result, x2.Outcomes[i].Result) {
			t.Errorf("outcome %d differs across runs", i)
		}
	}

	// Refresh ignores the store on read but still refreshes entries.
	x3, err := New(Options{Parallelism: 2, Store: st, Refresh: true}).Explore(context.Background(), space)
	if err != nil {
		t.Fatal(err)
	}
	if x3.Simulated != 2 || x3.Hits != 0 {
		t.Fatalf("refresh run: %d simulated, %d hits", x3.Simulated, x3.Hits)
	}
}
