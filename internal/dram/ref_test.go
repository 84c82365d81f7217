package dram

import (
	"math/rand"
	"slices"
	"testing"

	"upim/internal/config"
	"upim/internal/stats"
)

// refBank is the obvious bank the optimised one must agree with: every
// burst is its own entry, in arrival order, and each scheduling decision
// scans all of them. It keeps no runs, no per-row FIFOs and no remembered
// decision, so it shares none of Bank's shortcuts.
type refBank struct {
	tRCD, tRAS, tRP, tCL, tBL, tREFI, tRFC, starvationCap Tick
	refresh, frfcfs                                       bool
	burstBytes, rowBytes                                  uint32

	openRow                                   int64 // -1 when precharged
	cmdReadyAt, lastActivateAt, nextRefreshAt Tick
	// queue holds every burst ever enqueued; queue[head] is the oldest one
	// not yet served, and pending counts the unserved ones.
	queue         []refBurst
	head, pending int
	st            stats.DRAM
}

type refBurst struct {
	row     uint32
	write   bool
	served  bool
	arrival Tick
	tag     uint64
}

func newRefBank(cfg config.Config) *refBank {
	dt := cfg.DRAMTicksPerCycle()
	b := &refBank{
		tRCD: Tick(cfg.TRCD) * dt, tRAS: Tick(cfg.TRAS) * dt, tRP: Tick(cfg.TRP) * dt,
		tCL: Tick(cfg.TCL) * dt, tBL: Tick(cfg.TBL) * dt,
		tREFI: Tick(cfg.TREFI) * dt, tRFC: Tick(cfg.TRFC) * dt,
		starvationCap: 2000 * dt,
		refresh:       cfg.RefreshEnable, frfcfs: cfg.MemSchedulerFRFCFS,
		burstBytes: uint32(cfg.BurstBytes), rowBytes: uint32(cfg.RowBytes),
		openRow: -1,
	}
	if b.refresh {
		b.nextRefreshAt = b.tREFI
	}
	return b
}

// enqueue queues n bursts at addr, addr+BurstBytes, ..., each in the row of
// its first byte.
func (b *refBank) enqueue(addr uint32, n int, write bool, arrival Tick, tag uint64) {
	for k := range uint32(n) {
		b.queue = append(b.queue, refBurst{row: (addr + k*b.burstBytes) / b.rowBytes, write: write, arrival: arrival, tag: tag})
	}
	b.pending += n
}

// nextDecisionAt: the oldest burst is weighed once it has arrived and the
// bank accepts a command.
func (b *refBank) nextDecisionAt() (Tick, bool) {
	if b.pending == 0 {
		return 0, false
	}
	return max(b.cmdReadyAt, b.queue[b.head].arrival), true
}

// advance makes every decision due by now. A decision at or past the refresh
// deadline refreshes instead: all rows close and the bank stalls tRFC.
// Otherwise FR-FCFS picks the oldest arrived burst to the open row, unless
// the oldest burst has waited past the starvation cap (or FR-FCFS is off),
// and the oldest burst when there is no such hit.
func (b *refBank) advance(now Tick, out []Completion) []Completion {
	for {
		t, ok := b.nextDecisionAt()
		if !ok || t > now {
			return out
		}
		if b.refresh && t >= b.nextRefreshAt {
			b.openRow, b.cmdReadyAt = -1, t+b.tRFC
			b.nextRefreshAt += b.tREFI
			b.st.Refreshes++
			continue
		}
		pick := b.head
		if b.frfcfs && t-b.queue[b.head].arrival <= b.starvationCap {
			for i := b.head; i < len(b.queue); i++ {
				if q := b.queue[i]; !q.served && int64(q.row) == b.openRow && q.arrival <= t {
					pick = i
					break
				}
			}
		}
		q := &b.queue[pick]
		q.served = true
		b.pending--
		for b.head < len(b.queue) && b.queue[b.head].served {
			b.head++
		}
		out = append(out, Completion{Tag: q.tag, CompleteAt: b.access(*q, t)})
	}
}

// access issues q's commands from t and returns when its data is available:
// a column command on a hit; an activate first into a precharged bank; on a
// conflict a precharge once the open row has been active tRAS, then the
// activate. The data bus is busy tBL from the column command.
func (b *refBank) access(q refBurst, t Tick) Tick {
	column := t
	switch {
	case b.openRow == int64(q.row):
		b.st.RowHits++
	case b.openRow < 0:
		b.st.RowEmpty++
		b.lastActivateAt = t
		column = t + b.tRCD
	default:
		b.st.RowMisses++
		b.lastActivateAt = max(t, b.lastActivateAt+b.tRAS) + b.tRP
		column = b.lastActivateAt + b.tRCD
	}
	b.openRow = int64(q.row)
	b.cmdReadyAt = column + b.tBL
	if q.write {
		b.st.WriteBursts++
		b.st.BytesWritten += uint64(b.burstBytes)
	} else {
		b.st.ReadBursts++
		b.st.BytesRead += uint64(b.burstBytes)
	}
	return column + b.tCL + b.tBL
}

// vsReference runs the script on a Bank and a refBank and fails on the first
// difference in the completion sequence, Pending or NextDecisionAt, or, at
// the end, the DRAM counters.
func vsReference(t testing.TB, cfg config.Config, ops []twinOp) {
	t.Helper()
	var st stats.DRAM
	bank, ref := NewBank(cfg, &st), newRefBank(cfg)
	var got, want []Completion
	var arrival, now Tick
	step := func(i int, now Tick) {
		t.Helper()
		got, want = bank.Advance(now, got[:0]), ref.advance(now, want[:0])
		if !slices.Equal(got, want) {
			t.Fatalf("op %d: Advance(%d) scheduled %v, reference %v", i, now, got, want)
		}
		gotAt, gotOK := bank.NextDecisionAt()
		wantAt, wantOK := ref.nextDecisionAt()
		if bank.Pending() != ref.pending || gotAt != wantAt || gotOK != wantOK {
			t.Fatalf("op %d: Pending %d, NextDecisionAt %d,%v; reference %d, %d,%v",
				i, bank.Pending(), gotAt, gotOK, ref.pending, wantAt, wantOK)
		}
	}
	for i, op := range ops {
		arrival += op.dArrival
		tag := uint64(i)
		if op.perBurst {
			for k := range op.n {
				bank.Enqueue(op.addr+uint32(k*cfg.BurstBytes), op.write, arrival, tag)
			}
		} else {
			bank.EnqueueRun(op.addr, op.n, op.write, arrival, tag)
		}
		ref.enqueue(op.addr, op.n, op.write, arrival, tag)
		now += op.dNow
		step(i, now)
	}
	step(len(ops), ^Tick(0))
	if st != ref.st {
		t.Fatalf("counters %+v, reference %+v", st, ref.st)
	}
}

// TestBankMatchesReferenceRandomScripts is the fuzz target's property on
// seeded random scripts, so every `go test` run covers more than the seeds.
func TestBankMatchesReferenceRandomScripts(t *testing.T) {
	for cfgName, cfg := range twinConfigs() {
		t.Run(cfgName, func(t *testing.T) {
			for seed := int64(1); seed <= 40; seed++ {
				r := rand.New(rand.NewSource(seed))
				raw := make([]byte, 6*(1+r.Intn(60)))
				r.Read(raw)
				vsReference(t, cfg, decodeTwinOps(raw, cfg))
			}
		})
	}
}

// FuzzBankVsReference holds Bank to refBank — the same (tag, tick)
// completion sequence bit for bit, the same Pending and NextDecisionAt after
// every Advance, the same counters — under FR-FCFS and FCFS, with refresh,
// and with wide bursts, on scripts that mix Enqueue and EnqueueRun at
// nondecreasing arrivals. The first byte selects the scheduler variant; the
// seeds are FuzzEnqueueRun's, one of them enqueued burst by burst.
func FuzzBankVsReference(f *testing.F) {
	cfgs := twinConfigs()
	names := []string{"frfcfs", "fcfs", "refresh", "burst16"}
	f.Add([]byte{0, 0, 120, 255, 0, 0, 1, 0, 124, 255, 0, 0, 200})
	f.Add([]byte{0,
		0, 0, 4, 8, 0, 0,
		1, 0, 2, 8, 1, 0,
		0, 8, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 0,
		0, 0, 255, 0, 1, 255})
	f.Add([]byte{2, 3, 0, 255, 0, 0, 3, 3, 16, 200, 1, 9, 40})
	f.Add([]byte{1, 0, 0, 1, 10, 0, 0, 1, 0, 1, 10, 0, 0, 0, 1, 1, 10, 0, 9})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		cfg := cfgs[names[int(raw[0])%len(names)]]
		vsReference(t, cfg, decodeTwinOps(raw[1:], cfg))
	})
}
