package upim_test

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"upim"
)

func TestFacadeAssembleLinkRun(t *testing.T) {
	src := `
        movi r0, 7
        lsl  r1, id, 2
        movi r2, out
        add  r2, r2, r1
        add  r0, r0, id
        sw   r0, r2, 0
        stop
.alloc out 128
`
	obj, err := upim.Assemble("facade", src)
	if err != nil {
		t.Fatal(err)
	}
	cfg := upim.DefaultConfig()
	cfg.NumTasklets = 8
	sys, err := upim.NewSystem(obj, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	addr, err := sys.Program().SymbolAddr("out")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := sys.ReadWRAM(1, addr, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		got := uint32(raw[4*i]) | uint32(raw[4*i+1])<<8
		if got != uint32(7+i) {
			t.Fatalf("out[%d] = %d, want %d", i, got, 7+i)
		}
	}
}

func TestFacadeBenchmarksList(t *testing.T) {
	names := upim.Benchmarks()
	if len(names) != 16 {
		t.Fatalf("suite has %d benchmarks, want 16", len(names))
	}
	if names[0] != "BFS" || names[15] != "VA" {
		t.Fatalf("unexpected ordering: %v", names)
	}
}

// TestParseScale: ParseScale inverts Scale.String and rejects anything else
// — the zero Scale is tiny, so a lookup that ignored "not found" would run
// silently at the wrong size.
func TestParseScale(t *testing.T) {
	for _, sc := range []upim.Scale{upim.ScaleTiny, upim.ScaleSmall, upim.ScalePaper} {
		got, err := upim.ParseScale(sc.String())
		if err != nil || got != sc {
			t.Errorf("ParseScale(%q) = %v, %v; want %v", sc.String(), got, err, sc)
		}
	}
	for _, bad := range []string{"", "bogus", "Tiny", "tiny ", "0"} {
		if _, err := upim.ParseScale(bad); err == nil || !strings.Contains(err.Error(), "want tiny, small or paper") {
			t.Errorf("ParseScale(%q) error = %v, want one naming the valid scales", bad, err)
		}
	}
}

func TestFacadeExperiments(t *testing.T) {
	// 16 paper tables/figures plus the energy experiment and the
	// cross-architecture frontier.
	if len(upim.Experiments()) != 18 {
		t.Fatalf("expected 18 experiments, got %d", len(upim.Experiments()))
	}
	tab, err := upim.RunExperimentContext(context.Background(), "table1", upim.ExperimentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	if !strings.Contains(sb.String(), "350 MHz") {
		t.Fatal("Table I missing the DPU frequency")
	}
	if _, err := upim.RunExperimentContext(context.Background(), "nope", upim.ExperimentOptions{}); err == nil {
		t.Fatal("unknown experiment must error")
	}
}

// hangSource spins forever: the probe for watchdog and cancellation paths.
const hangSource = `
loop:   jump loop
`

// hangSystem builds a one-DPU system running an infinite loop.
func hangSystem(t *testing.T) *upim.System {
	t.Helper()
	obj, err := upim.Assemble("hang", hangSource)
	if err != nil {
		t.Fatal(err)
	}
	cfg := upim.DefaultConfig()
	cfg.NumTasklets = 1
	sys, err := upim.NewSystem(obj, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestLaunchCancellation checks that cancelling the context aborts a hung
// kernel promptly with ctx.Err() instead of spinning to the watchdog.
func TestLaunchCancellation(t *testing.T) {
	sys := hangSystem(t)
	sys.SetWatchdog(1 << 62) // effectively no watchdog: only ctx can stop it

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := sys.Launch(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Launch under cancelled ctx = %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestWatchdogTypedError checks that watchdog expiry is programmatically
// matchable.
func TestWatchdogTypedError(t *testing.T) {
	sys := hangSystem(t)
	sys.SetWatchdog(50_000)
	err := sys.Launch(context.Background())
	if !errors.Is(err, upim.ErrWatchdogExpired) {
		t.Fatalf("hung kernel returned %v, want ErrWatchdogExpired", err)
	}
}

func TestNilObjectRejected(t *testing.T) {
	if _, err := upim.NewSystem(nil, upim.DefaultConfig(), 1); err == nil {
		t.Fatal("NewSystem(nil, ...) must error")
	}
}

func TestFacadeILPConfig(t *testing.T) {
	cfg := upim.DefaultConfig().WithILP("DRSF")
	if !cfg.Forwarding || !cfg.UnifiedRF || cfg.IssueWidth != 2 || cfg.FreqMHz != 700 {
		t.Fatalf("WithILP wrong: %+v", cfg)
	}
}
