package explore

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"upim/internal/config"
	"upim/internal/machine"
	"upim/internal/prim"
)

// vocabSpec names every built-in axis with every kind of level it has: a
// baseline, a costed level, an ILP ladder, all three memory modes and every
// serving policy.
const vocabSpec = "arch=upmem,hbm-pim;tasklets=1,16;dpus=1,4;freq=350,700;link=1,4;" +
	"ilp=base,D,DRSF;mode=scratchpad,cache,simt;policy=fifo,wfq,slo"

// vocabAxes is vocabSpec built from the typed constructors.
func vocabAxes() []Axis {
	return []Axis{
		Archs(machine.ArchUPMEM, machine.ArchHBMPIM),
		Tasklets(1, 16),
		DPUs(1, 4),
		FrequencyMHz(350, 700),
		LinkScale(1, 4),
		ILP("base", "D", "DRSF"),
		Modes(config.ModeScratchpad, config.ModeCache, config.ModeSIMT),
		Policies("fifo", "wfq", "slo"),
	}
}

// vocabLines renders what a design point is to the rest of the tool: its
// Design label, its cost by bit pattern and its store key, one line per
// feasible point of axes over GEMV and VA at tiny scale.
func vocabLines(t *testing.T, axes []Axis) []byte {
	t.Helper()
	s := NewSpace([]string{"GEMV", "VA"}, axes...)
	s.Scale = prim.ScaleTiny
	pts, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for _, p := range pts {
		fmt.Fprintf(&out, "%s %s cost=%016x %s\n", p.Benchmark, p.Design, math.Float64bits(p.Cost), KeyOf(p.EP))
	}
	return out.Bytes()
}

// TestVocabularyGolden pins the axis vocabulary end to end: the eight
// built-in axes, parsed from one spec and built from the typed
// constructors, must format back to the same spec and enumerate the same
// points — Design label, cost and KeyOf — as testdata/vocab.golden.
// Regenerate (-run VocabularyGolden -update) only for a change meant to
// rename a level, re-cost it or move a store key.
func TestVocabularyGolden(t *testing.T) {
	parsed, err := ParseAxes(vocabSpec)
	if err != nil {
		t.Fatal(err)
	}
	typed := vocabAxes()
	var out bytes.Buffer
	fmt.Fprintf(&out, "FormatAxes(ParseAxes) %s\n", FormatAxes(parsed))
	for _, a := range typed {
		fmt.Fprintf(&out, "FormatAxes(typed) %s\n", FormatAxes([]Axis{a}))
	}
	points := vocabLines(t, parsed)
	if !bytes.Equal(points, vocabLines(t, typed)) {
		t.Error("the typed constructors enumerate different points from ParseAxes")
	}
	out.Write(points)

	const golden = "testdata/vocab.golden"
	if *update {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got := out.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got %s\nwant %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
