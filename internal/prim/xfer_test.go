package prim

import (
	"context"
	"errors"
	"testing"

	"upim/internal/config"
	"upim/internal/host"
	"upim/internal/mem"
)

// hostRun builds name's kernel for cfg and runs its host program with
// explicit parameters, returning the system for inspection.
func hostRun(t *testing.T, name string, cfg config.Config, dpus int, p Params) (*host.System, error) {
	t.Helper()
	b, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	obj, err := b.Build(cfg.Mode)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := host.NewSystem(obj, cfg, dpus)
	if err != nil {
		t.Fatal(err)
	}
	return sys, new(xfer).run(context.Background(), sys, b.host, p)
}

// TestTransferErrorSticks: a host whose first input overruns MRAM reports
// that error — not a verification failure over the zeros read back — and
// everything after the failed transfer, the launch included, is skipped.
func TestTransferErrorSticks(t *testing.T) {
	cfg := config.Default()
	cfg.MRAMBytes = 4 << 10 // VA's first 16 KiB vector does not fit
	b, _ := ByName("VA")
	sys, err := hostRun(t, "VA", cfg, 1, b.sizes[ScaleTiny])
	var access *mem.AccessError
	if !errors.As(err, &access) {
		t.Fatalf("err = %v, want the MRAM range error of the first put", err)
	}
	if rep := sys.Report(); rep.BytesIn != 0 || rep.BytesOut != 0 || rep.Launches != 0 {
		t.Fatalf("after a failed first put: %d bytes in, %d out, %d launches; want none",
			rep.BytesIn, rep.BytesOut, rep.Launches)
	}
}

// TestUniqueRestartsAtSliceBoundaries drives UNI through the shared
// compaction driver on an input whose DPU slices each begin with a repeat of
// the previous slice's last value: the kernel sees only its slice and keeps
// that element, so the golden rule must restart there too. The suite's tiny
// dataset has no such boundary at 3 or 4 DPUs.
func TestUniqueRestartsAtSliceBoundaries(t *testing.T) {
	p := Params{N: 1004, Seed: 16}
	a := randI32s(p.N, 8, p.Seed+77) // runUNI's input
	for _, r := range ranges(p.N, 3, 2)[1:] {
		if a[r[0]] != a[r[0]-1] {
			t.Fatalf("input has no repeat across the slice boundary at %d; pick another seed", r[0])
		}
	}
	for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache} {
		cfg := config.Default()
		cfg.Mode = mode
		cfg.NumTasklets = 7
		if _, err := hostRun(t, "UNI", cfg, 3, p); err != nil {
			t.Errorf("%v: %v", mode, err)
		}
	}
}
