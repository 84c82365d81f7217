package explore

import (
	"context"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/machine"
	"upim/internal/prim"
)

func TestArchsAxis(t *testing.T) {
	a := Archs(machine.ArchUPMEM, machine.ArchHBMPIM)
	if a.Name != "arch" || len(a.Levels) != 2 {
		t.Fatalf("unexpected axis shape: %+v", a)
	}
	if a.Levels[0].Cost != 0 {
		t.Fatalf("upmem baseline must cost 0, got %v", a.Levels[0].Cost)
	}
	if a.Levels[1].Cost != 7 {
		t.Fatalf("hbm-pim level must cost log2(128)=7, got %v", a.Levels[1].Cost)
	}
}

func TestParseAxesArch(t *testing.T) {
	axes, err := ParseAxes("arch=upmem,hbm-pim;dpus=1,2")
	if err != nil {
		t.Fatal(err)
	}
	if axes[0].Name != "arch" || axes[0].Levels[0].Label != "upmem" || axes[0].Levels[1].Label != "hbm-pim" {
		t.Fatalf("unexpected parse: %+v", axes[0])
	}
	if got := FormatAxes(axes); got != "arch=upmem,hbm-pim;dpus=1,2" {
		t.Fatalf("FormatAxes = %q", got)
	}

	if _, err := ParseAxes("arch=riscv"); err == nil || !strings.Contains(err.Error(), "unknown architecture") {
		t.Fatalf("want unknown-architecture error, got %v", err)
	}
	if _, err := ParseAxes("nope=1"); err == nil || !strings.Contains(err.Error(), "want arch, tasklets") {
		t.Fatalf("unknown-axis error must list arch in its vocabulary, got %v", err)
	}
}

// TestArchFeasibility pins the cross-architecture space rules: benchmarks
// without a bank-level mapping, any configuration but the default, and more
// sites than the machine has channels exist only on the UPMEM levels.
func TestArchFeasibility(t *testing.T) {
	s := NewSpace([]string{"GEMV", "BFS"}, Archs(machine.ArchUPMEM, machine.ArchHBMPIM))
	s.Scale = prim.ScaleTiny
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	count := map[string]int{}
	for _, p := range pts {
		count[p.Benchmark+"/"+p.Labels[0]]++
	}
	for combo, want := range map[string]int{
		"GEMV/upmem": 1, "GEMV/hbm-pim": 1, "BFS/upmem": 1, "BFS/hbm-pim": 0,
	} {
		if count[combo] != want {
			t.Errorf("%s: %d points, want %d (full count: %v)", combo, count[combo], want, count)
		}
	}

	// Cache mode describes the UPMEM memory hierarchy; it must not cross.
	s2 := NewSpace([]string{"GEMV"},
		Archs(machine.ArchUPMEM, machine.ArchHBMPIM),
		Modes(config.ModeScratchpad, config.ModeCache))
	s2.Scale = prim.ScaleTiny
	pts2, err := s2.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts2 {
		if p.Labels[0] == "hbm-pim" && p.EP.Config.Mode != config.ModeScratchpad {
			t.Fatalf("hbm-pim point escaped with mode %v: %s", p.EP.Config.Mode, p.Design)
		}
	}

	// The link and ILP axes describe the UPMEM core too: of the hbm-pim
	// levels only the default link and ILP survive, and more DPUs than
	// HBM-PIM's channels survive only on the UPMEM levels.
	for spec, want := range map[string][]string{
		"arch=upmem,hbm-pim;link=1,4;ilp=base,DRSF": {
			"arch=upmem link=x1 ilp=base", "arch=upmem link=x1 ilp=DRSF",
			"arch=upmem link=x4 ilp=base", "arch=upmem link=x4 ilp=DRSF",
			"arch=hbm-pim link=x1 ilp=base",
		},
		"arch=upmem,hbm-pim;dpus=64,65": {
			"arch=upmem dpus=64", "arch=upmem dpus=65", "arch=hbm-pim dpus=64",
		},
	} {
		axes, err := ParseAxes(spec)
		if err != nil {
			t.Fatal(err)
		}
		s := NewSpace([]string{"GEMV"}, axes...)
		s.Scale = prim.ScaleTiny
		pts, err := s.Points()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range pts {
			got = append(got, p.Design)
		}
		if strings.Join(got, "|") != strings.Join(want, "|") {
			t.Errorf("%s: points %q, want %q", spec, got, want)
		}
	}
}

// TestCrossArchExploreResume runs a cross-architecture exploration twice
// over one store: the second run must be fully cached, and the hbm-pim
// points must come back tagged with their architecture both fresh and
// resumed.
func TestCrossArchExploreResume(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := NewSpace([]string{"GEMV"}, Archs(machine.ArchUPMEM, machine.ArchHBMPIM), DPUs(1, 2))
	s.Scale = prim.ScaleTiny

	check := func(x *Exploration, wantCached bool) {
		t.Helper()
		if len(x.Outcomes) != 4 {
			t.Fatalf("want 4 outcomes, got %d", len(x.Outcomes))
		}
		for _, o := range x.Outcomes {
			if o.Err != nil {
				t.Fatalf("point %s failed: %v", o.Point.Design, o.Err)
			}
			if o.Cached != wantCached {
				t.Fatalf("point %s cached=%v, want %v", o.Point.Design, o.Cached, wantCached)
			}
			wantArch := ""
			if o.Point.Labels[0] == "hbm-pim" {
				wantArch = machine.ArchHBMPIM
			}
			if o.Result.Arch != wantArch {
				t.Fatalf("point %s came back with arch %q, want %q", o.Point.Design, o.Result.Arch, wantArch)
			}
		}
	}

	x1, err := New(Options{Parallelism: 2, Store: st}).Explore(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	check(x1, false)
	if x1.Simulated != 4 {
		t.Fatalf("first run simulated %d, want 4", x1.Simulated)
	}

	x2, err := New(Options{Parallelism: 2, Store: st}).Explore(context.Background(), s)
	if err != nil {
		t.Fatal(err)
	}
	check(x2, true)
	if x2.Simulated != 0 || x2.Hits != 4 {
		t.Fatalf("resume: simulated %d hits %d, want 0/4", x2.Simulated, x2.Hits)
	}
}
