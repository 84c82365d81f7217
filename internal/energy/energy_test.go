package energy_test

import (
	"context"
	"math"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/energy"
	"upim/internal/host"
	"upim/internal/isa"
	"upim/internal/kbuild"
	"upim/internal/linker"
	"upim/internal/prim"
	"upim/internal/stats"
)

// stepKernel loops arg0 times: DMA a 64-byte MRAM chunk in, bump its first
// word, DMA it back — touching every scratchpad-mode event class the energy
// model integrates (pipeline, RF, WRAM, IRAM, link, DRAM).
func stepKernel(t *testing.T) *linker.Object {
	t.Helper()
	b := kbuild.New("energystep")
	rN, rV, pBuf, rMram := kbuild.R(0), kbuild.R(1), kbuild.R(2), kbuild.R(3)
	buf := b.Static("buf", 64, 8)
	b.LoadArg(rN, 0)
	b.LoadArg(rMram, 1)
	b.MoviSym(pBuf, buf, 0)
	b.Label("loop")
	b.Ldmai(pBuf, rMram, 64)
	b.Lw(rV, pBuf, 0)
	b.Addi(rV, rV, 1)
	b.Sw(rV, pBuf, 0)
	b.Sdmai(pBuf, rMram, 64)
	b.SubiBr(rN, rN, 1, isa.CondGTZ, "loop")
	b.Stop()
	obj, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestBulkEqualsStepwise pins the model's linearity: the energy computed
// from a DPU's final counters equals the sum of the energies of the
// per-launch counter deltas, window by window, to 1e-12 relative — the
// property that makes windowed power profiles sum to the run total.
func TestBulkEqualsStepwise(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 4
	sys, err := host.NewSystem(stepKernel(t), cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	var prev stats.DPU
	var stepSum energy.Report
	for launch := 0; launch < 3; launch++ {
		if err := sys.WriteArgs(0, uint32(20*(launch+1)), host.MRAMBaseAddr(4096)); err != nil {
			t.Fatal(err)
		}
		if err := sys.Launch(context.Background()); err != nil {
			t.Fatal(err)
		}
		cur := *sys.DPU(0).Stats()
		delta := energy.Delta(&cur, &prev)
		stepSum = stepSum.Add(energy.Kernel(nil, cfg, &delta))
		prev = cur
	}
	bulk := energy.Kernel(nil, cfg, &prev)
	if bulk.TotalPJ() <= 0 {
		t.Fatal("kernel produced no energy — the step kernel exercised nothing")
	}
	for c := range energy.NumComponents {
		got, want := stepSum.PJ[c], bulk.PJ[c]
		if rel := math.Abs(got - want); rel > 1e-12*math.Max(math.Abs(want), 1) {
			t.Errorf("component %v: stepwise %v vs bulk %v", c, got, want)
		}
	}
	// The scratchpad run must populate the expected components and leave the
	// cache-mode-only ones empty.
	for _, c := range []energy.Component{energy.Pipeline, energy.RegFile, energy.WRAM,
		energy.IRAM, energy.Link, energy.DRAM, energy.Leakage} {
		if bulk.PJ[c] <= 0 {
			t.Errorf("component %v empty on a DMA kernel", c)
		}
	}
	if bulk.PJ[energy.CacheArrays] != 0 || bulk.PJ[energy.HostLink] != 0 {
		t.Errorf("kernel-only report charged cache/host components: %+v", bulk.PJ)
	}
}

func TestHostTransferAndOfRun(t *testing.T) {
	p := energy.Default()
	ht := energy.HostTransfer(p, 1000, 500)
	if got, want := ht.PJ[energy.HostLink], 1500*p.HostLinkPJPerByte; got != want {
		t.Fatalf("host link energy = %v, want %v", got, want)
	}
	var st stats.DPU
	st.Instructions = 100
	st.Mix[isa.ClassArith] = 100
	st.Cycles = 1000
	cfg := config.Default()
	run := energy.OfRun(p, cfg, []stats.DPU{st, st}, 1000, 500)
	single := energy.Kernel(p, cfg, &st)
	want := ht.Add(single).Add(single)
	if run != want {
		t.Fatalf("OfRun = %+v, want per-DPU sum + host transfer %+v", run, want)
	}
}

func TestReportDerivations(t *testing.T) {
	var r energy.Report
	r.PJ[energy.Pipeline] = 2e6 // 2 µJ
	r.PJ[energy.DRAM] = 3e6     // 3 µJ
	if got := r.TotalPJ(); got != 5e6 {
		t.Fatalf("TotalPJ = %v", got)
	}
	if got := r.MicroJoules(); got != 5 {
		t.Fatalf("MicroJoules = %v", got)
	}
	if got := r.PowerWatts(1e-3); math.Abs(got-5e-3) > 1e-18 {
		t.Fatalf("PowerWatts(1ms) = %v, want 5 mW", got)
	}
	if got := r.PowerWatts(0); got != 0 {
		t.Fatalf("PowerWatts(0) = %v, want 0 (no time, no power)", got)
	}
	if got := r.EDP(2); got != 2*r.Joules() {
		t.Fatalf("EDP = %v", got)
	}
	// The display unit derives from EDP: 1 J·s = 1e9 µJ·ms.
	if got := r.EDPMicroJouleMS(2); got != r.EDP(2)*1e9 {
		t.Fatalf("EDPMicroJouleMS = %v", got)
	}
}

func TestBreakdownShape(t *testing.T) {
	cols := energy.BreakdownColumns()
	row := energy.AppendBreakdownRow(nil, energy.Report{}, 0.5)
	if len(cols) != len(row) {
		t.Fatalf("breakdown row has %d cells under %d columns", len(row), len(cols))
	}
	if cols[0].Name != "pipeline" || cols[len(cols)-1].Name != "EDP" {
		t.Fatalf("unexpected breakdown columns: %v", cols)
	}
}

func TestProfileLoadOverride(t *testing.T) {
	def := energy.Default()
	p, err := energy.Load(strings.NewReader(`{"name": "custom", "format": 1, "leakage_mw": 99, "pipeline_pj": {"mul/div": 42}}`))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "custom" || p.LeakageMW != 99 {
		t.Fatalf("override not applied: %+v", p)
	}
	if p.PipelinePJ["mul/div"] != 42 {
		t.Fatalf("pipeline class override not applied: %v", p.PipelinePJ)
	}
	// Unnamed fields keep their defaults, including the other mix classes.
	if p.RFReadPJ != def.RFReadPJ || p.PipelinePJ["arith"] != def.PipelinePJ["arith"] {
		t.Fatalf("defaults lost on override: %+v", p)
	}
	// The default itself must be unaffected by loaded overrides.
	if d2 := energy.Default(); d2.LeakageMW != def.LeakageMW || d2.Name == "custom" {
		t.Fatalf("override mutated the shared default: %+v", d2)
	}
}

func TestProfileLoadRejections(t *testing.T) {
	cases := []struct{ name, json, want string }{
		{"unknown field", `{"leekage_mw": 3}`, "unknown"},
		{"format mismatch", `{"format": 99, "name": "n"}`, "format"},
		{"missing format", `{"name": "n", "leakage_mw": 3}`, "format"},
		{"unknown class", `{"pipeline_pj": {"simd": 1}, "name": "n", "format": 1}`, "unknown pipeline class"},
		{"negative energy", `{"rf_read_pj": -1, "name": "n", "format": 1}`, "negative"},
		{"empty name", `{"name": "", "format": 1}`, "name"},
		{"missing name", `{"format": 1, "leakage_mw": 3}`, "identity"},
		{"trailing content", `{"name": "n", "format": 1}{"leakage_mw": 60}`, "trailing"},
	}
	for _, c := range cases {
		if _, err := energy.Load(strings.NewReader(c.json)); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error = %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestProfileLoadTrailing: whatever follows the profile is refused,
// including a stray closing bracket.
func TestProfileLoadTrailing(t *testing.T) {
	for _, tail := range []string{"}", "]", " {}", "x"} {
		_, err := energy.Load(strings.NewReader(`{"name": "n", "format": 1}` + tail))
		if err == nil || !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("tail %q: error = %v, want trailing content", tail, err)
		}
	}
}

func TestClassKeyCoversMix(t *testing.T) {
	p := energy.Default()
	for c := 0; c < isa.NumClasses; c++ {
		key := energy.ClassKey(isa.Class(c))
		if _, ok := p.PipelinePJ[key]; !ok {
			t.Errorf("default profile missing pipeline class %q", key)
		}
	}
}

// TestSharedProfileStaysReadOnly pins the profile a nil resolves to: it is
// parsed once and shared by every pricing call, so what Default and
// DefaultFor hand out must be copies. A caller that mutates its copy — a
// pipeline class, the leakage, the name — changes neither the next nil-profile
// price of a result of either architecture, nor ResolveProfile(nil), nor what
// Load overrides.
func TestSharedProfileStaysReadOnly(t *testing.T) {
	var st stats.DPU
	st.Cycles, st.Instructions = 10000, 4000
	st.Mix[isa.ClassArith], st.RFReads, st.WRAMReads, st.DMABytes = 3000, 5000, 700, 4096
	st.DRAM.BytesRead, st.DRAM.RowMisses = 4096, 3
	price := func() [2]energy.Report {
		var out [2]energy.Report
		for i, arch := range []string{"", "hbm-pim"} {
			res := &prim.Result{Arch: arch, Config: config.Default(), PerDPU: []stats.DPU{st, st}}
			res.Report.BytesIn, res.Report.BytesOut = 1024, 512
			out[i] = res.Energy(nil)
		}
		return out
	}
	const override = `{"name": "custom", "format": 1, "rf_read_pj": 7}`
	load := func() *energy.TechProfile {
		p, err := energy.Load(strings.NewReader(override))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	wantPrice, wantResolved, wantLoaded := price(), *energy.ResolveProfile(nil), load()
	wantArith := wantResolved.PipelinePJ["arith"]

	for _, p := range []*energy.TechProfile{energy.Default(), energy.DefaultFor("hbm-pim"), energy.ResolveProfile(energy.Default())} {
		p.PipelinePJ["arith"] *= 1000
		p.LeakageMW += 5000
		p.Name = "mutated"
	}

	if got := price(); got != wantPrice {
		t.Errorf("nil-profile energy moved after mutating a copy:\n got %+v\nwant %+v", got, wantPrice)
	}
	got := energy.ResolveProfile(nil)
	if got.Name != wantResolved.Name || got.LeakageMW != wantResolved.LeakageMW || got.PipelinePJ["arith"] != wantArith {
		t.Errorf("ResolveProfile(nil) moved after mutating a copy: %+v", got)
	}
	loaded := load()
	if loaded.LeakageMW != wantLoaded.LeakageMW || loaded.PipelinePJ["arith"] != wantLoaded.PipelinePJ["arith"] || loaded.RFReadPJ != 7 {
		t.Errorf("Load's base moved after mutating a copy: %+v", loaded)
	}
}
