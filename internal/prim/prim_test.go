package prim

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"upim/internal/config"
)

// runPoint executes one benchmark point without a cache, arena or watchdog
// override.
func runPoint(name string, cfg config.Config, nDPUs int, scale Scale) (*Result, error) {
	return RunSpec(context.Background(), Spec{Benchmark: name, Config: cfg, DPUs: nDPUs, Scale: scale})
}

// TestSuiteMatrix functionally verifies every registered benchmark across
// modes, thread counts and DPU counts at tiny scale — the repo's stand-in
// for the paper's cross-validation against real hardware.
func TestSuiteMatrix(t *testing.T) {
	for _, b := range Benchmarks() {
		for _, mode := range []config.Mode{config.ModeScratchpad, config.ModeCache} {
			for _, threads := range []int{1, 4, 16} {
				for _, dpus := range []int{1, 4} {
					name := b.Name + "/" + mode.String() +
						"/t" + itoa(threads) + "/d" + itoa(dpus)
					t.Run(name, func(t *testing.T) {
						t.Parallel()
						cfg := config.Default()
						cfg.Mode = mode
						cfg.NumTasklets = threads
						if _, err := runPoint(b.Name, cfg, dpus, ScaleTiny); err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// TestOddSizes exercises non-round dataset sizes (partition edge cases).
func TestOddSizes(t *testing.T) {
	for _, b := range Benchmarks() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			cfg := config.Default()
			cfg.NumTasklets = 7 // deliberately awkward
			if _, err := runPoint(b.Name, cfg, 3, ScaleTiny); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSizesGolden pins every benchmark's dataset sizes at every scale — the
// Table II rows. Refdata reaches only the tiny column; a mistyped small or
// paper size would pass everything else.
func TestSizesGolden(t *testing.T) {
	var out bytes.Buffer
	for _, b := range Benchmarks() {
		for _, s := range []Scale{ScaleTiny, ScaleSmall, ScalePaper} {
			p, err := b.Params(s)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "%s %v %+v\n", b.Name, s, p)
		}
	}
	checkGolden(t, "testdata/sizes.golden", out.Bytes())
}

func TestUnknownBenchmark(t *testing.T) {
	if _, err := ByName("NOPE"); err == nil {
		t.Fatal("unknown benchmark must error")
	}
	if _, err := runPoint("NOPE", config.Default(), 1, ScaleTiny); err == nil {
		t.Fatal("Run of unknown benchmark must error")
	}
}

func TestTaskletCapEnforced(t *testing.T) {
	cfg := config.Default()
	cfg.NumTasklets = 24
	if _, err := runPoint("VA", cfg, 1, ScaleTiny); err == nil {
		t.Fatal("tasklet cap must be enforced")
	}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{
		"BFS", "BS", "GEMV", "HST-L", "HST-S", "MLP", "NW", "RED",
		"SCAN-RSS", "SCAN-SSA", "SEL", "SpMV", "TRNS", "TS", "UNI", "VA",
	}
	var have []string
	for _, b := range Benchmarks() {
		have = append(have, b.Name)
	}
	if !slices.Equal(have, want) {
		t.Fatalf("suite lists %v, want %v (Table II, in name order)", have, want)
	}
}

// TestScaleOutOfRange: a Scale past the table is an error naming the three
// scales — not paper sizes, and not a panic.
func TestScaleOutOfRange(t *testing.T) {
	for _, s := range []Scale{-1, 3} {
		if _, err := runPoint("NW", config.Default(), 1, s); err == nil || !strings.Contains(err.Error(), "want tiny, small or paper") {
			t.Errorf("RunSpec at scale %d: err = %v, want an unknown-scale error", int(s), err)
		}
	}
}
