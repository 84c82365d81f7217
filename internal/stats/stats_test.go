package stats

import (
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"upim/internal/isa"
)

func TestTLPBins(t *testing.T) {
	cases := map[int]int{
		0: 0, 1: 1, 4: 1, 5: 2, 8: 2, 9: 3, 12: 3, 13: 4, 16: 4, 17: 5, 24: 5,
	}
	for in, want := range cases {
		if got := TLPBin(in); got != want {
			t.Errorf("TLPBin(%d) = %d, want %d", in, got, want)
		}
	}
	for b := 0; b < TLPBins; b++ {
		if TLPBinLabel(b) == "" {
			t.Errorf("bin %d unlabeled", b)
		}
	}
}

func TestQuickTLPBinMonotone(t *testing.T) {
	f := func(a, b uint8) bool {
		x, y := int(a%25), int(b%25)
		if x > y {
			x, y = y, x
		}
		return TLPBin(x) <= TLPBin(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBreakdownSumsToOne(t *testing.T) {
	s := DPU{IssueSlots: 100, Issued: 60}
	s.Idle[IdleMemory] = 25
	s.Idle[IdleRevolver] = 10
	s.Idle[IdleRF] = 5
	a, b, c, d := s.Breakdown()
	if sum := a + b + c + d; sum < 0.999 || sum > 1.001 {
		t.Fatalf("breakdown sums to %f", sum)
	}
	if a != 0.6 || b != 0.25 || c != 0.1 || d != 0.05 {
		t.Fatalf("breakdown = %v %v %v %v", a, b, c, d)
	}
}

func TestRates(t *testing.T) {
	s := DPU{Cycles: 1000, Instructions: 500}
	if s.IPC() != 0.5 {
		t.Fatal("IPC")
	}
	if s.ComputeUtilization(2) != 0.25 {
		t.Fatal("compute utilization")
	}
	s.DRAM.BytesRead = 1000
	if got := s.MemoryReadBandwidthUtilization(2); got != 0.5 {
		t.Fatalf("mem util = %f", got)
	}
	s.IssuableSum = 8000
	if s.AvgIssuable() != 8 {
		t.Fatal("avg issuable")
	}
	var zero DPU
	if zero.IPC() != 0 || zero.AvgIssuable() != 0 || zero.ComputeUtilization(0) != 0 {
		t.Fatal("zero-value rates must be 0")
	}
}

func TestMixFractions(t *testing.T) {
	var s DPU
	s.Instructions = 10
	s.Mix[isa.ClassArith] = 6
	s.Mix[isa.ClassSync] = 4
	mix := s.MixFractions()
	if mix[isa.ClassArith] != 0.6 || mix[isa.ClassSync] != 0.4 {
		t.Fatalf("mix = %v", mix)
	}
}

func TestDRAMRates(t *testing.T) {
	d := DRAM{RowHits: 90, RowMisses: 5, RowEmpty: 5}
	if d.RowHitRate() != 0.9 {
		t.Fatalf("hit rate = %f", d.RowHitRate())
	}
	if d.Activations() != 10 {
		t.Fatalf("activations = %d", d.Activations())
	}
	var z DRAM
	if z.RowHitRate() != 0 {
		t.Fatal("empty hit rate must be 0")
	}
}

func TestCacheHitRate(t *testing.T) {
	c := Cache{Hits: 70, Misses: 20, MSHRMerges: 10}
	if c.HitRate() != 0.8 {
		t.Fatalf("hit rate = %f (merges count as hits)", c.HitRate())
	}
}

func TestAddAggregates(t *testing.T) {
	a := DPU{Cycles: 100, Instructions: 50, IssueSlots: 100, Issued: 50}
	a.Mix[isa.ClassArith] = 50
	a.TLPHist[2] = 7
	a.DRAM.BytesRead = 10
	a.AcquireOK = 3
	b := DPU{Cycles: 200, Instructions: 75, IssueSlots: 200, Issued: 75}
	b.DRAM.BytesRead = 30
	b.MMU.TLBHits = 9

	var agg DPU
	agg.Add(&a)
	agg.Add(&b)
	if agg.Cycles != 200 { // max, not sum: DPUs run in parallel
		t.Fatalf("cycles = %d", agg.Cycles)
	}
	if agg.Instructions != 125 || agg.DRAM.BytesRead != 40 ||
		agg.Mix[isa.ClassArith] != 50 || agg.TLPHist[2] != 7 ||
		agg.AcquireOK != 3 || agg.MMU.TLBHits != 9 {
		t.Fatalf("agg = %+v", agg)
	}
}

func TestSummaryMentionsKeyFields(t *testing.T) {
	var s DPU
	s.Cycles = 10
	s.Instructions = 5
	s.IssueSlots = 10
	s.Issued = 5
	s.AcquireOK = 2
	s.AcquireFail = 1
	s.MMU.TLBHits = 3
	s.DCache.Hits = 4
	out := s.Summary()
	for _, want := range []string{"cycles", "IPC", "instruction mix", "DRAM", "locks", "MMU", "caches"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

// TestCountersStable pins the serialization contract: unique names, stable
// order, values matching the record. Renaming or reordering counters breaks
// committed reference artifacts, so this test is deliberately strict.
func TestCountersStable(t *testing.T) {
	var s DPU
	s.Cycles = 100
	s.Instructions = 80
	s.DRAM.BytesRead = 4096
	s.MMU.PageFaults = 3
	cs := s.Counters()
	if len(cs) < 30 {
		t.Fatalf("counters = %d, expected the full record", len(cs))
	}
	seen := map[string]float64{}
	for _, c := range cs {
		if _, dup := seen[c.Name]; dup {
			t.Errorf("duplicate counter %q", c.Name)
		}
		seen[c.Name] = c.Value
	}
	if seen["cycles"] != 100 || seen["instructions"] != 80 {
		t.Errorf("identity counters wrong: %v", seen)
	}
	if seen["ipc"] != 0.8 {
		t.Errorf("ipc = %v", seen["ipc"])
	}
	if seen["dram_bytes_read"] != 4096 || seen["page_faults"] != 3 {
		t.Errorf("nested counters wrong: %v", seen)
	}
	if cs[0].Name != "cycles" {
		t.Errorf("order changed: first counter %q", cs[0].Name)
	}
	// A second call must produce the identical sequence.
	for i, c := range s.Counters() {
		if cs[i] != c {
			t.Fatalf("unstable counter %d: %v vs %v", i, cs[i], c)
		}
	}
}

func TestIdleReasonStrings(t *testing.T) {
	if IdleMemory.String() != "Idle(Memory)" ||
		IdleRevolver.String() != "Idle(Revolver)" ||
		IdleRF.String() != "Idle(RF)" {
		t.Fatal("idle reason labels wrong")
	}
}

func TestAttributeIdleProportions(t *testing.T) {
	var s DPU
	s.AttributeIdle(4, 3, 1)
	if s.Idle[IdleMemory] != 3 || s.Idle[IdleRevolver] != 1 {
		t.Fatalf("idle split = %v, want 3:1 over 4 slots", s.Idle)
	}
	// No waiting threads: the leftover slot is a revolver artifact.
	var s2 DPU
	s2.AttributeIdle(2, 0, 0)
	if s2.Idle[IdleRevolver] != 2 || s2.Idle[IdleMemory] != 0 {
		t.Fatalf("idle split with no waiters = %v", s2.Idle)
	}
}

// TestAttributeIdleMatchesTwoDivisions holds AttributeIdle, which skips the
// arithmetic when only one kind of thread is waiting, to the two-division
// formula it is an exact shortcut for — by bit pattern, on running sums, for
// whole slot counts up to 2^40 (the core only ever passes whole slots).
func TestAttributeIdleMatchesTwoDivisions(t *testing.T) {
	reference := func(idle *[NumIdleReasons]float64, slots float64, memN, revN int) {
		tot := memN + revN
		if tot == 0 {
			idle[IdleRevolver] += slots
			return
		}
		idle[IdleMemory] += slots * float64(memN) / float64(tot)
		idle[IdleRevolver] += slots * float64(revN) / float64(tot)
	}
	r := rand.New(rand.NewSource(19))
	slotValues := []float64{1, 2, 3, 7, 1 << 20, 1<<40 - 1, 1 << 40}
	for i := 0; i < 2000; i++ {
		slotValues = append(slotValues, float64(r.Int63n(1<<40)+1))
	}
	var got DPU
	var want [NumIdleReasons]float64
	for _, slots := range slotValues {
		for memN := 0; memN <= 24; memN++ {
			for revN := 0; memN+revN <= 24; revN++ {
				// A fresh pair as well as the running sums: the shortcut must
				// hold whatever is already in the buckets.
				var g DPU
				var w [NumIdleReasons]float64
				g.AttributeIdle(slots, memN, revN)
				reference(&w, slots, memN, revN)
				got.AttributeIdle(slots, memN, revN)
				reference(&want, slots, memN, revN)
				for k := range w {
					if math.Float64bits(g.Idle[k]) != math.Float64bits(w[k]) ||
						math.Float64bits(got.Idle[k]) != math.Float64bits(want[k]) {
						t.Fatalf("slots=%v memN=%d revN=%d: idle %v / sum %v, reference %v / sum %v",
							slots, memN, revN, g.Idle, got.Idle, w, want)
					}
				}
			}
		}
	}
}

func TestRecordTLPBulkEqualsRepeated(t *testing.T) {
	// One bulk call must fill histogram, sum, and timeline windows exactly
	// like the equivalent sequence of single-cycle calls — the property the
	// scheduler's fast-forward depends on.
	const window = 7
	var bulk, step DPU
	bulk.RecordTLP(3, 2, window)
	bulk.RecordTLP(0, 16, window)
	bulk.RecordTLP(5, 4, window)
	for i := 0; i < 2; i++ {
		step.RecordTLP(3, 1, window)
	}
	for i := 0; i < 16; i++ {
		step.RecordTLP(0, 1, window)
	}
	for i := 0; i < 4; i++ {
		step.RecordTLP(5, 1, window)
	}
	if bulk.TLPHist != step.TLPHist {
		t.Fatalf("histograms differ: %v vs %v", bulk.TLPHist, step.TLPHist)
	}
	if bulk.IssuableSum != step.IssuableSum {
		t.Fatalf("issuable sums differ: %d vs %d", bulk.IssuableSum, step.IssuableSum)
	}
	if len(bulk.Timeline) != len(step.Timeline) {
		t.Fatalf("timeline lengths differ: %d vs %d", len(bulk.Timeline), len(step.Timeline))
	}
	for i := range bulk.Timeline {
		if bulk.Timeline[i] != step.Timeline[i] {
			t.Fatalf("timeline[%d] = %v vs %v", i, bulk.Timeline[i], step.Timeline[i])
		}
	}
}
