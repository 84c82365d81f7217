package explore

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"upim/internal/artifact"
	"upim/internal/machine"
	"upim/internal/prim"
)

// TestReportGolden pins the bytes of a pathfinding report against the past,
// not just against a second run of the same build: every file WriteReport
// writes for a resumed `pathfind -pareto -goals time,energy,cost -energy`
// exploration and for a resumed two-tier one (with its triage table), plus
// the console text of the same tables, as one `name length sha256` line each
// in testdata/report.golden. Resumed, because that is the pass whose tables
// and renderers are tuned for speed; the space spans both architectures, so
// nil-profile energy is priced under each one's default. A change meant to
// move a report regenerates it with
// `go test ./internal/explore -run ReportGolden -update`.
func TestReportGolden(t *testing.T) {
	ctx := context.Background()
	space := NewSpace([]string{"VA", "BS"},
		Archs(machine.ArchUPMEM, machine.ArchHBMPIM), Tasklets(1, 16), FrequencyMHz(350, 700), ILP("base", "DRSF"))
	space.Scale = prim.ScaleTiny
	goals, err := ParseGoals("time,energy,cost", nil)
	if err != nil {
		t.Fatal(err)
	}
	storeDir := t.TempDir()
	resumed := func(run func(*Explorer) (*Exploration, error)) *Exploration {
		t.Helper()
		var x *Exploration
		for pass := 0; pass < 2; pass++ {
			st, err := OpenStore(storeDir)
			if err != nil {
				t.Fatal(err)
			}
			if x, err = run(New(Options{Parallelism: 2, Store: st})); err != nil {
				t.Fatal(err)
			}
			if pass == 1 && x.Simulated != 0 {
				t.Fatalf("resumed pass simulated %d points", x.Simulated)
			}
		}
		return x
	}

	x := resumed(func(e *Explorer) (*Exploration, error) { return e.Explore(ctx, space) })
	exhaustive := []*artifact.Table{x.SummaryTable(), x.ParetoTable(goals...), x.BestTable(3), x.EnergyTable(nil)}

	tieredSpace := NewSpace([]string{"VA"}, Tasklets(1, 4, 16), FrequencyMHz(350, 700), ILP("base", "DRSF"))
	tieredSpace.Scale = prim.ScaleTiny
	var tri *Triage
	tx := resumed(func(e *Explorer) (*Exploration, error) {
		var x *Exploration
		var err error
		x, tri, err = e.ExploreTiered(ctx, tieredSpace, TieredOptions{Band: 0.03})
		return x, err
	})
	if tx.Estimated == 0 {
		t.Fatal("the two-tier space resolved no point by estimate; its summary has no tier-A row")
	}
	tiered := []*artifact.Table{tx.SummaryTable(), tx.TriageTable(tri), tx.ParetoTable(), tx.BestTable(3)}

	files := map[string][]byte{}
	for name, tables := range map[string][]*artifact.Table{"exhaustive": exhaustive, "tiered": tiered} {
		dir := filepath.Join(t.TempDir(), name)
		if err := artifact.WriteReport(dir, tables); err != nil {
			t.Fatal(err)
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range ents {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			files[name+"/"+e.Name()] = data
		}
		var console bytes.Buffer
		for _, tab := range tables {
			tab.Fprint(&console)
		}
		files[name+"/console.txt"] = console.Bytes()
	}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	var got strings.Builder
	for _, name := range names {
		fmt.Fprintf(&got, "%s %d %x\n", name, len(files[name]), sha256.Sum256(files[name]))
	}

	path := filepath.Join("testdata", "report.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (regenerate with -update): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("report bytes moved:\n--- got ---\n%s--- want ---\n%s", got.String(), want)
	}
}
