package host

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/core"
	"upim/internal/kbuild"
	"upim/internal/linker"
)

// dpuidKernel stores DPUID+arg0 into MRAM[arg1] (one word), exercising both
// args and per-DPU identity.
func dpuidKernel() *linker.Object {
	b := kbuild.New("dpuid")
	r0, r1, r2 := kbuild.R(0), kbuild.R(1), kbuild.R(2)
	buf := b.Static("stage", 8, 8)
	b.LoadArg(r0, 0)
	b.Add(r0, r0, kbuild.DPUID)
	b.MoviSym(r1, buf, 0)
	b.Sw(r0, r1, 0)
	b.LoadArg(r2, 1)
	b.Sdmai(r1, r2, 8)
	b.Stop()
	return b.MustBuild()
}

func newTestSystem(t *testing.T, n int) *System {
	t.Helper()
	cfg := config.Default()
	cfg.NumTasklets = 1
	s, err := NewSystem(dpuidKernel(), cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestMultiDPULaunch(t *testing.T) {
	const n = 8
	s := newTestSystem(t, n)
	for i := 0; i < n; i++ {
		if err := s.WriteArgs(i, 1000, MRAMBaseAddr(4096)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	s.SetPhase(PhaseOutput)
	for i := 0; i < n; i++ {
		out, err := s.ReadMRAM(i, 4096, 4)
		if err != nil {
			t.Fatal(err)
		}
		if got := binary.LittleEndian.Uint32(out); got != uint32(1000+i) {
			t.Errorf("dpu %d result = %d, want %d", i, got, 1000+i)
		}
	}
	rep := s.Report()
	if rep.Launches != 1 || rep.KernelSeconds <= 0 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestTransferTimeModel(t *testing.T) {
	s := newTestSystem(t, 4)
	cfg := s.Config()
	payload := make([]byte, 1<<20)
	// Same-size transfers to all DPUs proceed in parallel: one transfer's
	// time, not four.
	for i := 0; i < 4; i++ {
		if err := s.CopyToMRAM(i, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	rep := s.Report()
	want := float64(len(payload)) / cfg.CPUToDPUBytesPerSec
	if math.Abs(rep.PhaseSeconds(PhaseInput)-want) > want*1e-9 {
		t.Fatalf("input seconds = %g, want %g", rep.PhaseSeconds(PhaseInput), want)
	}

	// Reads are charged at the (slower) DPU->CPU bandwidth.
	s.SetPhase(PhaseOutput)
	if _, err := s.ReadMRAM(0, 0, 1<<20); err != nil {
		t.Fatal(err)
	}
	rep = s.Report()
	wantOut := float64(1<<20) / cfg.DPUToCPUBytesPerSec
	if math.Abs(rep.PhaseSeconds(PhaseOutput)-wantOut) > wantOut*1e-9 {
		t.Fatalf("output seconds = %g, want %g", rep.PhaseSeconds(PhaseOutput), wantOut)
	}
	if wantOut <= want {
		t.Fatal("asymmetry lost: reads must be slower than writes")
	}
}

func TestExchangePhaseBucketsBothDirections(t *testing.T) {
	s := newTestSystem(t, 2)
	s.SetPhase(PhaseExchange)
	if _, err := s.ReadMRAM(0, 0, 4096); err != nil {
		t.Fatal(err)
	}
	if err := s.CopyToMRAM(1, 0, make([]byte, 4096)); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	cfg := s.Config()
	want := 4096/cfg.DPUToCPUBytesPerSec + 4096/cfg.CPUToDPUBytesPerSec
	if math.Abs(rep.PhaseSeconds(PhaseExchange)-want) > want*1e-9 {
		t.Fatalf("exchange seconds = %g, want %g", rep.PhaseSeconds(PhaseExchange), want)
	}
	if rep.PhaseSeconds(PhaseInput) != 0 || rep.PhaseSeconds(PhaseOutput) != 0 {
		t.Fatal("exchange leaked into other phases")
	}
}

func TestRelaunchAccumulates(t *testing.T) {
	s := newTestSystem(t, 2)
	for i := 0; i < 2; i++ {
		if err := s.WriteArgs(i, 5, MRAMBaseAddr(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	k1 := s.Report().KernelSeconds
	// Second launch with new args; memories persist, threads restart.
	s.SetPhase(PhaseExchange)
	for i := 0; i < 2; i++ {
		if err := s.WriteArgs(i, 7, MRAMBaseAddr(8192)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	rep := s.Report()
	if rep.Launches != 2 {
		t.Fatalf("launches = %d", rep.Launches)
	}
	if rep.KernelSeconds <= k1 {
		t.Fatal("second launch added no kernel time")
	}
	out, err := s.ReadMRAM(1, 8192, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := binary.LittleEndian.Uint32(out); got != 8 {
		t.Fatalf("post-relaunch result = %d, want 8", got)
	}
}

func TestLaunchPropagatesFaults(t *testing.T) {
	b := kbuild.New("faulty")
	b.Fault(kbuild.R(0), 1)
	b.Stop()
	cfg := config.Default()
	cfg.NumTasklets = 1
	s, err := NewSystem(b.MustBuild(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Launch(context.Background()); err == nil || !strings.Contains(err.Error(), "software fault") {
		t.Fatalf("err = %v, want fault propagation", err)
	}
}

func TestArgsValidation(t *testing.T) {
	s := newTestSystem(t, 1)
	long := make([]uint32, linker.ArgWords+1)
	if err := s.WriteArgs(0, long...); err == nil {
		t.Fatal("oversized args accepted")
	}
}

func TestAggregateStats(t *testing.T) {
	s := newTestSystem(t, 4)
	for i := 0; i < 4; i++ {
		if err := s.WriteArgs(i, 1, MRAMBaseAddr(0)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Launch(context.Background()); err != nil {
		t.Fatal(err)
	}
	agg := s.AggregateStats()
	one := s.DPU(0).Stats().Instructions
	if agg.Instructions != 4*one {
		t.Fatalf("aggregate instructions = %d, want %d", agg.Instructions, 4*one)
	}
}

// must is a tiny helper for transfer-script steps.
func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestTransferAccountingSequences drives multi-window transfer scripts —
// distribution, exchange rounds between launches, retrieval — and asserts
// every Report.TransferSeconds bucket against the model: within one flush
// window transfers to distinct DPUs overlap (per-direction max), transfers
// to the same DPU serialize, and SetPhase/Launch/Report close the window.
func TestTransferAccountingSequences(t *testing.T) {
	cfg := config.Default()
	bwIn, bwOut := cfg.CPUToDPUBytesPerSec, cfg.DPUToCPUBytesPerSec
	const MB = 1 << 20
	sec := func(inBytes, outBytes float64) float64 { return inBytes/bwIn + outBytes/bwOut }

	cases := []struct {
		name     string
		dpus     int
		script   func(t *testing.T, s *System)
		want     [3]float64 // indexed by PhaseInput, PhaseOutput, PhaseExchange
		launches int
	}{
		{
			name: "parallel distribution then single retrieval",
			dpus: 4,
			script: func(t *testing.T, s *System) {
				payload := make([]byte, MB)
				for i := 0; i < 4; i++ {
					must(t, s.CopyToMRAM(i, 0, payload))
				}
				s.SetPhase(PhaseOutput)
				_, err := s.ReadMRAM(0, 0, 2*MB)
				must(t, err)
			},
			want: [3]float64{PhaseInput: sec(MB, 0), PhaseOutput: sec(0, 2*MB)},
		},
		{
			name: "same-DPU transfers serialize within a window",
			dpus: 2,
			script: func(t *testing.T, s *System) {
				payload := make([]byte, MB)
				must(t, s.CopyToMRAM(0, 0, payload))
				must(t, s.CopyToMRAM(0, MB, payload)) // same DPU: accumulates
				must(t, s.CopyToMRAM(1, 0, payload))  // other DPU: overlapped
				s.SetPhase(PhaseExchange)             // closes the window
				must(t, s.CopyToMRAM(0, 0, payload))  // fresh window
			},
			want: [3]float64{PhaseInput: sec(2*MB, 0), PhaseExchange: sec(MB, 0)},
		},
		{
			name: "bidirectional exchange window",
			dpus: 2,
			script: func(t *testing.T, s *System) {
				s.SetPhase(PhaseExchange)
				_, err := s.ReadMRAM(0, 0, 4096)
				must(t, err)
				must(t, s.CopyToMRAM(1, 0, make([]byte, 4096)))
			},
			want: [3]float64{PhaseExchange: sec(4096, 4096)},
		},
		{
			name: "multi-launch with an exchange round",
			dpus: 2,
			script: func(t *testing.T, s *System) {
				// Args are 2 words = 8 bytes of CPU->DPU traffic per DPU.
				must(t, s.WriteArgs(0, 1000, MRAMBaseAddr(4096)))
				must(t, s.WriteArgs(1, 1000, MRAMBaseAddr(4096)))
				must(t, s.CopyToMRAM(0, 0, make([]byte, MB)))
				must(t, s.Launch(context.Background())) // flushes input: max(MB+8, 8)
				s.SetPhase(PhaseExchange)
				_, err := s.ReadMRAM(0, 4096, 4096)
				must(t, err)
				must(t, s.WriteArgs(0, 2000, MRAMBaseAddr(8192)))
				must(t, s.WriteArgs(1, 2000, MRAMBaseAddr(8192)))
				must(t, s.CopyToMRAM(1, 0, make([]byte, 4096)))
				must(t, s.Launch(context.Background())) // flushes exchange: in max(8, 4096+8), out 4096
				s.SetPhase(PhaseOutput)
				_, err = s.ReadMRAM(1, 8192, MB)
				must(t, err)
			},
			want: [3]float64{
				PhaseInput:    sec(MB+8, 0),
				PhaseExchange: sec(4096+8, 4096),
				PhaseOutput:   sec(0, MB),
			},
			launches: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := newTestSystem(t, tc.dpus)
			tc.script(t, s)
			rep := s.Report()
			for p := PhaseInput; p < numPhases; p++ {
				got, want := rep.PhaseSeconds(p), tc.want[p]
				if math.Abs(got-want) > want*1e-9 {
					t.Errorf("%v seconds = %g, want %g", p, got, want)
				}
			}
			if rep.Launches != tc.launches {
				t.Errorf("launches = %d, want %d", rep.Launches, tc.launches)
			}
		})
	}
}

func TestLaunchErrorSelection(t *testing.T) {
	fault := errors.New("software fault 1")
	// A real worker failure wins over a simultaneous cancellation and names
	// its DPU.
	err := launchError(7, context.Canceled, []error{context.Canceled, fault, context.Canceled})
	if !errors.Is(err, fault) {
		t.Fatalf("err = %v, want the worker fault", err)
	}
	if !strings.Contains(err.Error(), "dpu 1") || !strings.Contains(err.Error(), "launch 7") {
		t.Fatalf("err = %v, want dpu index and launch number", err)
	}
	// Pure cancellation reports the context error without a bogus DPU index.
	err = launchError(3, context.Canceled, []error{context.Canceled, nil})
	if !errors.Is(err, context.Canceled) || strings.Contains(err.Error(), "dpu") {
		t.Fatalf("err = %v, want plain cancellation", err)
	}
	// An uncancelled failing launch still names the failing DPU.
	err = launchError(0, nil, []error{nil, nil, fault})
	if !errors.Is(err, fault) || !strings.Contains(err.Error(), "dpu 2") {
		t.Fatalf("err = %v, want dpu 2 fault", err)
	}
	if err := launchError(0, nil, make([]error, 3)); err != nil {
		t.Fatalf("clean launch errored: %v", err)
	}
}

func TestLaunchWrapsFailingDPUIndex(t *testing.T) {
	// Only DPU 2 faults; the launch error must name it.
	b := kbuild.New("fault-one")
	r0 := kbuild.R(0)
	b.Mov(r0, kbuild.DPUID)
	b.Jnei(r0, 2, "ok")
	b.Fault(r0, 1)
	b.Label("ok")
	b.Stop()
	cfg := config.Default()
	cfg.NumTasklets = 1
	s, err := NewSystem(b.MustBuild(), cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Launch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "dpu 2") || !strings.Contains(err.Error(), "software fault") {
		t.Fatalf("err = %v, want a dpu-2 software fault", err)
	}
}

// TestLaunchBatchedErrorGlobalIndex pins error attribution under
// contiguous-range batching: with far more DPUs than workers, each worker
// owns a multi-DPU batch, and a failure deep inside a later batch must be
// reported by its global DPU index, not its offset within the batch (a
// batch-local bug would report "dpu 29" here, not "dpu 61").
func TestLaunchBatchedErrorGlobalIndex(t *testing.T) {
	prev := runtime.GOMAXPROCS(2) // exactly 2 workers -> two 32-DPU batches
	defer runtime.GOMAXPROCS(prev)

	const n, failing = 64, 61
	b := kbuild.New("fault-global")
	r0 := kbuild.R(0)
	b.Mov(r0, kbuild.DPUID)
	b.Jnei(r0, failing, "ok")
	b.Fault(r0, 1)
	b.Label("ok")
	b.Stop()
	cfg := config.Default()
	cfg.NumTasklets = 1
	s, err := NewSystem(b.MustBuild(), cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Launch(context.Background())
	if err == nil || !strings.Contains(err.Error(), "dpu 61") || !strings.Contains(err.Error(), "software fault") {
		t.Fatalf("err = %v, want a dpu-61 software fault (global index, not batch offset)", err)
	}
}

func TestLaunchCancelledBeforeStart(t *testing.T) {
	s := newTestSystem(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := s.Launch(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if s.Report().Launches != 0 {
		t.Fatal("cancelled launch was counted")
	}
}

// TestReleasedShellsGoToTheNextSystem: every system draws its DPUs from the
// process's arena free list, so a released system's shells are the next
// system's, whoever builds it, while systems alive at once never share one.
func TestReleasedShellsGoToTheNextSystem(t *testing.T) {
	a, b := newTestSystem(t, 3), newTestSystem(t, 3)
	was := map[*core.DPU]bool{a.DPU(0): true, a.DPU(1): true, a.DPU(2): true}
	for i := 0; i < 3; i++ {
		if was[b.DPU(i)] {
			t.Fatal("two live systems hold the same DPU shell")
		}
	}
	a.Release()
	a.Release() // idempotent: the arena goes back once
	c := newTestSystem(t, 3)
	defer c.Release()
	b.Release()
	recycled := 0
	for i := 0; i < 3; i++ {
		if was[c.DPU(i)] {
			recycled++
		}
	}
	if recycled != 3 {
		t.Fatalf("the next system recycled %d of the released system's 3 shells", recycled)
	}
}
