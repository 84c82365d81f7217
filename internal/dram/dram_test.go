package dram

import (
	"math/rand"
	"testing"
	"testing/quick"

	"upim/internal/config"
	"upim/internal/stats"
)

func newBank(t *testing.T, mutate func(*config.Config)) (*Bank, *stats.DRAM, config.Config) {
	t.Helper()
	cfg := config.Default()
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	st := &stats.DRAM{}
	return NewBank(cfg, st), st, cfg
}

// collect drains all decisions up to `now` into a tag->tick map.
func collect(b *Bank, now Tick) map[uint64]Tick {
	out := map[uint64]Tick{}
	for _, c := range b.Advance(now, nil) {
		out[c.Tag] = c.CompleteAt
	}
	return out
}

// tagsOf drains all decisions up to `now` and returns the scheduling order.
func tagsOf(b *Bank, now Tick) []uint64 {
	var order []uint64
	for _, c := range b.Advance(now, nil) {
		order = append(order, c.Tag)
	}
	return order
}

func TestColdAccessLatency(t *testing.T) {
	b, st, cfg := newBank(t, nil)
	dt := cfg.DRAMTicksPerCycle()
	b.Enqueue(0, false, 0, 1)
	done := collect(b, ^Tick(0))
	want := Tick(cfg.TRCD+cfg.TCL+cfg.TBL) * dt
	if done[1] != want {
		t.Fatalf("cold access completes at %d, want %d", done[1], want)
	}
	if st.RowEmpty != 1 || st.RowHits != 0 || st.RowMisses != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesRead != uint64(cfg.BurstBytes) {
		t.Fatalf("BytesRead = %d", st.BytesRead)
	}
}

func TestRowHitStreaming(t *testing.T) {
	b, st, cfg := newBank(t, nil)
	dt := cfg.DRAMTicksPerCycle()
	const n = 16
	for i := 0; i < n; i++ {
		b.Enqueue(uint32(i*cfg.BurstBytes), false, 0, uint64(i))
	}
	done := collect(b, ^Tick(0))
	// After the first activation, row hits stream one burst every tBL.
	first := Tick(cfg.TRCD+cfg.TCL+cfg.TBL) * dt
	for i := 0; i < n; i++ {
		want := first + Tick(i)*Tick(cfg.TBL)*dt
		if done[uint64(i)] != want {
			t.Fatalf("burst %d completes at %d, want %d", i, done[uint64(i)], want)
		}
	}
	if st.RowHits != n-1 || st.RowEmpty != 1 {
		t.Fatalf("row stats = %+v", st)
	}
}

func TestRowConflictPaysRASAndPrecharge(t *testing.T) {
	b, _, cfg := newBank(t, nil)
	dt := cfg.DRAMTicksPerCycle()
	b.Enqueue(0, false, 0, 0)                    // opens row 0
	b.Enqueue(uint32(cfg.RowBytes), false, 0, 1) // row 1: conflict
	done := collect(b, ^Tick(0))
	// Precharge may not start before tRAS after the first activation.
	pre := Tick(cfg.TRAS) * dt
	want := pre + Tick(cfg.TRP+cfg.TRCD+cfg.TCL+cfg.TBL)*dt
	if done[1] != want {
		t.Fatalf("conflict access completes at %d, want %d", done[1], want)
	}
}

func TestFRFCFSPrefersOpenRow(t *testing.T) {
	b, _, cfg := newBank(t, nil)
	rows := cfg.RowBytes
	b.Enqueue(0, false, 0, 0)            // row 0 (oldest, opens row)
	b.Enqueue(uint32(rows), false, 0, 1) // row 1
	b.Enqueue(8, false, 0, 2)            // row 0 again
	order := tagsOf(b, ^Tick(0))
	if len(order) != 3 || order[0] != 0 || order[1] != 2 || order[2] != 1 {
		t.Fatalf("FR-FCFS order = %v, want [0 2 1]", order)
	}
}

func TestFCFSModeKeepsArrivalOrder(t *testing.T) {
	b, _, cfg := newBank(t, func(c *config.Config) { c.MemSchedulerFRFCFS = false })
	b.Enqueue(0, false, 0, 0)
	b.Enqueue(uint32(cfg.RowBytes), false, 0, 1)
	b.Enqueue(8, false, 0, 2)
	order := tagsOf(b, ^Tick(0))
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("FCFS order = %v, want [0 1 2]", order)
	}
}

func TestStarvationCapBoundsBypassing(t *testing.T) {
	b, _, cfg := newBank(t, nil)
	dt := cfg.DRAMTicksPerCycle()
	// One row-1 request, then a long train of row-0 hits arriving together.
	const victimTag = 1 << 32
	b.Enqueue(0, false, 0, victimTag+1)                  // opens row 0
	b.Enqueue(uint32(cfg.RowBytes), false, 1, victimTag) // the victim
	const train = 5000
	for i := 0; i < train; i++ {
		b.Enqueue(uint32(i%64*8), false, 1, uint64(i))
	}
	var victimAt Tick
	for _, c := range b.Advance(^Tick(0), nil) {
		if c.Tag == victimTag {
			victimAt = c.CompleteAt
		}
	}
	if victimAt == 0 {
		t.Fatal("victim was never serviced")
	}
	capTicks := 2000 * dt
	// The victim must be scheduled within the age cap plus one service.
	slack := capTicks + Tick(cfg.TRAS+cfg.TRP+cfg.TRCD+cfg.TCL+cfg.TBL)*dt
	if victimAt > 1+slack {
		t.Fatalf("victim served at %d, cap implies <= %d", victimAt, 1+slack)
	}
}

func TestAdvanceRespectsNow(t *testing.T) {
	b, _, _ := newBank(t, nil)
	b.Enqueue(0, false, 5000, 0)
	if got := collect(b, 4999); len(got) != 0 {
		t.Fatalf("scheduled %v before arrival", got)
	}
	if at, ok := b.NextDecisionAt(); !ok || at != 5000 {
		t.Fatalf("NextDecisionAt = %d,%v want 5000,true", at, ok)
	}
	if got := collect(b, 5000); len(got) != 1 {
		t.Fatalf("decision at arrival not made: %v", got)
	}
	if _, ok := b.NextDecisionAt(); ok {
		t.Fatal("NextDecisionAt must report empty queue")
	}
	if err := b.Drain(); err != nil {
		t.Fatal(err)
	}
}

func TestDrainReportsPending(t *testing.T) {
	b, _, _ := newBank(t, nil)
	b.Enqueue(0, false, 1<<40, 0)
	if err := b.Drain(); err == nil {
		t.Fatal("Drain must fail with pending requests")
	}
}

func TestRefreshInsertsStalls(t *testing.T) {
	b, st, cfg := newBank(t, func(c *config.Config) { c.RefreshEnable = true })
	dt := cfg.DRAMTicksPerCycle()
	refi := Tick(cfg.TREFI) * dt
	// Request arriving after tREFI triggers a refresh first.
	b.Enqueue(0, false, refi+1, 7)
	done := collect(b, ^Tick(0))
	wantMin := refi + Tick(cfg.TRFC)*dt
	if done[7] < wantMin {
		t.Fatalf("completion %d ignores refresh stall (min %d)", done[7], wantMin)
	}
	if st.Refreshes != 1 {
		t.Fatalf("Refreshes = %d", st.Refreshes)
	}
}

func TestWritesCountedSeparately(t *testing.T) {
	b, st, cfg := newBank(t, nil)
	b.Enqueue(0, true, 0, 0)
	b.Enqueue(8, false, 0, 1)
	collect(b, ^Tick(0))
	if st.BytesWritten != uint64(cfg.BurstBytes) || st.BytesRead != uint64(cfg.BurstBytes) {
		t.Fatalf("rw stats = %+v", st)
	}
	if st.WriteBursts != 1 || st.ReadBursts != 1 {
		t.Fatalf("burst counts = %+v", st)
	}
}

// Property: every request completes, completions never precede arrivals plus
// the minimum access latency, the data bus never overlaps (completions are
// spaced >= tBL apart), and all requests eventually drain.
func TestQuickTimingInvariants(t *testing.T) {
	cfg := config.Default()
	dt := cfg.DRAMTicksPerCycle()
	minLat := Tick(cfg.TCL+cfg.TBL) * dt
	tbl := Tick(cfg.TBL) * dt
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		st := &stats.DRAM{}
		b := NewBank(cfg, st)
		n := 1 + r.Intn(200)
		arrivals := make([]Tick, n)
		var now Tick
		for i := 0; i < n; i++ {
			now += Tick(r.Intn(2000))
			arrivals[i] = now
			b.Enqueue(uint32(r.Intn(1<<20))&^7, r.Intn(4) == 0, now, uint64(i))
		}
		completions := map[uint64]Tick{}
		var order []Tick
		for _, c := range b.Advance(^Tick(0), nil) {
			completions[c.Tag] = c.CompleteAt
			order = append(order, c.CompleteAt)
		}
		if len(completions) != n {
			return false
		}
		for i := 0; i < n; i++ {
			at, ok := completions[uint64(i)]
			if !ok || at < arrivals[i]+minLat {
				return false
			}
		}
		// Scheduling order monotone in bus occupancy.
		for i := 1; i < len(order); i++ {
			if order[i] < order[i-1]+tbl {
				return false
			}
		}
		return b.Drain() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// serveStream serves a seeded stream of DMA-shaped runs over eight rows of
// b's directory — the last row among them, so a stream touches the top of
// whatever directory cfg gives — and returns its completions in scheduling
// order.
func serveStream(b *Bank, cfg config.Config, seed int64) []Completion {
	r := rand.New(rand.NewSource(seed))
	nRows := cfg.MRAMBytes / cfg.RowBytes
	pool := []int{nRows - 1}
	for len(pool) < 8 {
		pool = append(pool, r.Intn(nRows))
	}
	var out []Completion
	var now Tick
	for i := 0; i < 300; i++ {
		addr := pool[r.Intn(len(pool))]*cfg.RowBytes + r.Intn(cfg.RowBytes/cfg.BurstBytes)*cfg.BurstBytes
		n := min(1+r.Intn(64), (cfg.MRAMBytes-addr)/cfg.BurstBytes) // a run may cross rows, not the end of MRAM
		b.EnqueueRun(uint32(addr), n, r.Intn(4) == 0, now, uint64(i))
		now += Tick(r.Intn(4000))
		out = b.Advance(now, out)
	}
	return b.Advance(^Tick(0), out)
}

// TestResetAcrossRowGeometries: Reset clears only the directory entries of
// the rows the last run touched, so a directory that shrinks and then grows
// back over rows a run touched before the shrink is where a missed entry
// would surface. After a multi-row stream the bank is reset under a smaller
// directory, a larger one and the original; after each reset every entry of
// the directory's capacity must read -1, and the next seeded stream must
// complete, burst for burst and counter for counter, as on a NewBank.
func TestResetAcrossRowGeometries(t *testing.T) {
	base := config.Default()
	small := base
	small.MRAMBytes = base.MRAMBytes / 8
	large := base
	large.RowBytes = base.RowBytes / 2
	var st stats.DRAM
	b := NewBank(base, &st)
	serveStream(b, base, 1)
	for i, cfg := range []config.Config{small, large, base} {
		var resetSt, freshSt stats.DRAM
		b.Reset(cfg, &resetSt)
		if want := cfg.MRAMBytes / cfg.RowBytes; len(b.rowDir) != want {
			t.Fatalf("reset %d: directory of %d rows, want %d", i, len(b.rowDir), want)
		}
		for row, ri := range b.rowDir[:cap(b.rowDir)] {
			if ri != -1 {
				t.Fatalf("reset %d: directory entry %d (of capacity %d) reads %d, want -1", i, row, cap(b.rowDir), ri)
			}
		}
		seed := int64(i + 2)
		got, want := serveStream(b, cfg, seed), serveStream(NewBank(cfg, &freshSt), cfg, seed)
		if len(got) != len(want) {
			t.Fatalf("reset %d: %d completions, a new bank's %d", i, len(got), len(want))
		}
		for k := range got {
			if got[k] != want[k] {
				t.Fatalf("reset %d: completion %d = %+v, a new bank's %+v", i, k, got[k], want[k])
			}
		}
		if resetSt != freshSt {
			t.Fatalf("reset %d: counters %+v, a new bank's %+v", i, resetSt, freshSt)
		}
		if resetSt.RowHits == 0 || resetSt.RowMisses == 0 {
			t.Fatalf("reset %d: the stream must both hit and miss open rows: %+v", i, resetSt)
		}
	}
}

func TestLinkSerializesAtConfiguredBandwidth(t *testing.T) {
	cfg := config.Default()
	l := NewLink(cfg)
	cyc := cfg.DPUTicksPerCycle()
	// 8 bytes at 2 B/cycle = 4 DPU cycles.
	if done := l.Reserve(0, 8); done != 4*cyc {
		t.Fatalf("first reserve = %d, want %d", done, 4*cyc)
	}
	// Back-to-back data queued behind the first.
	if done := l.Reserve(0, 8); done != 8*cyc {
		t.Fatalf("second reserve = %d, want %d", done, 8*cyc)
	}
	// Data not ready until later starts later.
	if done := l.Reserve(100*cyc, 16); done != 108*cyc {
		t.Fatalf("third reserve = %d, want %d", done, 108*cyc)
	}
	if l.FreeAt() != 108*cyc {
		t.Fatalf("FreeAt = %d", l.FreeAt())
	}
}

func TestLinkScalesWithConfig(t *testing.T) {
	cfg := config.Default()
	cfg.LinkBytesPerCycle = 8 // Fig 13 x4
	l := NewLink(cfg)
	cyc := cfg.DPUTicksPerCycle()
	if done := l.Reserve(0, 64); done != 8*cyc {
		t.Fatalf("x4 link reserve = %d, want %d", done, 8*cyc)
	}
}

func TestQuickLinkMonotone(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		l := NewLink(config.Default())
		var last Tick
		for i := 0; i < 100; i++ {
			done := l.Reserve(Tick(r.Intn(10000)), 8+r.Intn(64)&^7)
			if done <= last {
				return false
			}
			last = done
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
