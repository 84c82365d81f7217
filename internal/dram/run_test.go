package dram

import (
	"math/rand"
	"testing"

	"upim/internal/config"
	"upim/internal/stats"
)

// twinOp is one step of a twin-bank script: enqueue n bursts at addr, arriving
// dArrival ticks after the previous arrival, then advance both banks to a
// clock dNow ticks past the previous one.
type twinOp struct {
	addr     uint32
	n        int
	write    bool
	dArrival Tick
	dNow     Tick
}

// twin runs the script on two banks built from cfg — one enqueues each op with
// a single EnqueueRun, the other with n Enqueue calls in address order, which
// is the per-burst queue EnqueueRun claims to be indistinguishable from — and
// fails on the first difference in the (tag, tick) completion sequence, in
// Pending, in NextDecisionAt or, at the end, in the DRAM counters. It returns
// the completion sequence.
func twin(t testing.TB, cfg config.Config, ops []twinOp) []Completion {
	t.Helper()
	var runSt, oneSt stats.DRAM
	runs, ones := NewBank(cfg, &runSt), NewBank(cfg, &oneSt)
	var all, gotBuf, wantBuf []Completion
	var arrival, now Tick
	check := func(step int, what string) {
		t.Helper()
		if runs.Pending() != ones.Pending() {
			t.Fatalf("op %d %s: Pending %d, per-burst %d", step, what, runs.Pending(), ones.Pending())
		}
		gotAt, gotOK := runs.NextDecisionAt()
		wantAt, wantOK := ones.NextDecisionAt()
		if gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("op %d %s: NextDecisionAt %d,%v, per-burst %d,%v", step, what, gotAt, gotOK, wantAt, wantOK)
		}
	}
	advance := func(step int, now Tick) {
		t.Helper()
		gotBuf, wantBuf = runs.Advance(now, gotBuf[:0]), ones.Advance(now, wantBuf[:0])
		if len(gotBuf) != len(wantBuf) {
			t.Fatalf("op %d: Advance(%d) scheduled %d bursts, per-burst %d", step, now, len(gotBuf), len(wantBuf))
		}
		for i := range gotBuf {
			if gotBuf[i] != wantBuf[i] {
				t.Fatalf("op %d: Advance(%d) completion %d = %+v, per-burst %+v", step, now, i, gotBuf[i], wantBuf[i])
			}
		}
		all = append(all, gotBuf...)
		check(step, "after Advance")
	}
	for i, op := range ops {
		arrival += op.dArrival
		tag := uint64(i)
		runs.EnqueueRun(op.addr, op.n, op.write, arrival, tag)
		for k := 0; k < op.n; k++ {
			ones.Enqueue(op.addr+uint32(k*cfg.BurstBytes), op.write, arrival, tag)
		}
		check(i, "after enqueue")
		now += op.dNow
		advance(i, now)
	}
	advance(len(ops), ^Tick(0))
	if runSt != oneSt {
		t.Fatalf("counters %+v, per-burst %+v", runSt, oneSt)
	}
	if err := runs.Drain(); err != nil {
		t.Fatal(err)
	}
	return all
}

// twinConfigs are the scheduler variants every twin script runs under.
func twinConfigs() map[string]config.Config {
	base := config.Default()
	fcfs := base
	fcfs.MemSchedulerFRFCFS = false
	refresh := base
	refresh.RefreshEnable = true
	refresh.TREFI = 700 // several refreshes inside one 256-burst run
	wide := base
	wide.BurstBytes = 16
	wide.RowBytes = 1024
	return map[string]config.Config{"frfcfs": base, "fcfs": fcfs, "refresh": refresh, "burst16": wide}
}

func TestEnqueueRunMatchesPerBurstEnqueue(t *testing.T) {
	row := uint32(config.Default().RowBytes)
	scripts := map[string][]twinOp{
		"one DMA": {{addr: 0, n: 32, dNow: 100}},
		"crosses rows": {
			{addr: row - 24, n: 256, dNow: 5000},
			{addr: 3*row - 8, n: 3, write: true, dArrival: 10, dNow: 1 << 30},
		},
		"unaligned to the burst": {{addr: row - 8, n: 5}, {addr: 2*row + 8, n: 4, dArrival: 1}},
		// A row-1 victim behind row-0 trains that arrive while row 0 is
		// open: FR-FCFS bypasses it until the starvation cap, which falls
		// inside a train.
		"starvation cap": {
			{addr: 0, n: 4},
			{addr: row, n: 2, dArrival: 1},
			{addr: 64, n: 120, dArrival: 1},
			{addr: 0, n: 128, dArrival: 1},
			{addr: 0, n: 128, dArrival: 1},
			{addr: 0, n: 128, dArrival: 1},
			{addr: 0, n: 128, dArrival: 1},
			{addr: 0, n: 128, dArrival: 1},
		},
		// The clock creeps one burst time at a time, so Advance stops inside
		// runs, and new runs arrive while older ones are half serviced.
		"interleaved arrivals": func() []twinOp {
			var ops []twinOp
			for i := 0; i < 200; i++ {
				ops = append(ops, twinOp{
					addr: uint32(i%5) * row * 7 / 8 &^ 7, n: 1 + i*7%40, write: i%3 == 0,
					dArrival: Tick(i % 4 * 300), dNow: Tick(i%4*300 + i%2*150),
				})
			}
			return ops
		}(),
		"future arrival": {{addr: 0, n: 8, dArrival: 1 << 20}, {addr: row, n: 8, dNow: 1 << 21}},
	}
	for cfgName, cfg := range twinConfigs() {
		for name, ops := range scripts {
			t.Run(cfgName+"/"+name, func(t *testing.T) {
				done := twin(t, cfg, ops)
				if cfgName == "frfcfs" && name == "starvation cap" {
					// The script must reach the cap: the victim (tag 1) is
					// served before the last train's bursts, not after them.
					var victimAt, lastTrainAt int
					for i, c := range done {
						switch c.Tag {
						case 1:
							victimAt = i
						case 7:
							lastTrainAt = i
						}
					}
					if victimAt == 0 || victimAt > lastTrainAt-128 {
						t.Fatalf("victim served at position %d of %d: the cap was never reached", victimAt, len(done))
					}
				}
			})
		}
	}
}

// TestEnqueueRunRandomScripts is the fuzz target's property on seeded random
// scripts, so every `go test` run covers more than the seed corpus.
func TestEnqueueRunRandomScripts(t *testing.T) {
	for cfgName, cfg := range twinConfigs() {
		t.Run(cfgName, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				raw := make([]byte, 6*(1+r.Intn(60)))
				r.Read(raw)
				twin(t, cfg, decodeTwinOps(raw, cfg))
			}
		})
	}
}

// decodeTwinOps turns fuzz bytes into a script, six bytes per op: row (of
// eight), burst column, length, flags, arrival step and clock step. Arrival
// and clock steps are in quarter-burst-times, so scripts reach both "several
// runs queued at once" and "the clock stops inside a run".
func decodeTwinOps(raw []byte, cfg config.Config) []twinOp {
	quantum := Tick(cfg.TBL) * cfg.DRAMTicksPerCycle() / 4
	var ops []twinOp
	for ; len(raw) >= 6; raw = raw[6:] {
		row := uint32(raw[0] % 8)
		col := uint32(raw[1]) % uint32(cfg.RowBytes/8) * 8
		op := twinOp{
			addr:  row*uint32(cfg.RowBytes) + col,
			n:     int(raw[2]),
			write: raw[3]&1 != 0,
		}
		if raw[3]&2 != 0 {
			op.n %= 9 // short runs: the single-burst and PTE-walk shapes
		}
		op.dArrival = Tick(raw[4]) * quantum
		op.dNow = Tick(raw[5]) * quantum
		if raw[3]&4 != 0 {
			op.dNow *= 64 // let the queue drain
		}
		ops = append(ops, op)
	}
	return ops
}

// FuzzEnqueueRun holds EnqueueRun to n × Enqueue on twin banks — same (tag,
// tick) completion sequence, same Pending and NextDecisionAt after every
// step, same stats.DRAM — under FR-FCFS and FCFS, with refresh on, and with
// bursts wider than the address alignment. The first byte selects the
// scheduler variant.
func FuzzEnqueueRun(f *testing.F) {
	cfgs := twinConfigs()
	names := []string{"frfcfs", "fcfs", "refresh", "burst16"}
	// Seeds: a 2 KiB DMA crossing two rows; the starvation-cap shape (a
	// victim in another row behind back-to-back 255-burst trains); a refresh
	// landing inside a run; single bursts only.
	f.Add([]byte{0, 0, 120, 255, 0, 0, 1, 0, 124, 255, 0, 0, 200})
	f.Add([]byte{0,
		0, 0, 4, 0, 0, 0,
		1, 0, 2, 0, 1, 0,
		0, 8, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 255})
	f.Add([]byte{2, 3, 0, 255, 0, 0, 3, 3, 16, 200, 1, 9, 40})
	f.Add([]byte{1, 0, 0, 1, 2, 0, 0, 1, 0, 1, 2, 0, 0, 0, 1, 1, 2, 0, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		cfg := cfgs[names[int(raw[0])%len(names)]]
		twin(t, cfg, decodeTwinOps(raw[1:], cfg))
	})
}
