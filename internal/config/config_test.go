package config

import (
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	if err := Default().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTickArithmetic(t *testing.T) {
	cases := []struct {
		mhz  int
		want Tick
	}{
		{350, 384}, {700, 192}, {1200, 112}, {4800, 28}, {19200, 7},
	}
	for _, c := range cases {
		if got := TicksPerCycle(c.mhz); got != c.want {
			t.Errorf("TicksPerCycle(%d) = %d, want %d", c.mhz, got, c.want)
		}
	}
}

func TestTicksPerCyclePanicsOnNonDivisor(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for 333 MHz")
		}
	}()
	TicksPerCycle(333)
}

func TestWithILP(t *testing.T) {
	cfg := Default().WithILP("D")
	if !cfg.Forwarding || cfg.UnifiedRF || cfg.IssueWidth != 1 || cfg.FreqMHz != 350 {
		t.Fatalf("D: %+v", cfg)
	}
	cfg = Default().WithILP("DRSF")
	if !cfg.Forwarding || !cfg.UnifiedRF || cfg.IssueWidth != 2 || cfg.FreqMHz != 700 {
		t.Fatalf("DRSF: %+v", cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("DRSF config invalid: %v", err)
	}
	// Order-insensitive.
	a, b := Default().WithILP("FD"), Default().WithILP("DF")
	if a != b {
		t.Fatal("WithILP must be order-insensitive")
	}
}

func TestWithILPPanicsOnUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unknown feature")
		}
	}()
	Default().WithILP("X")
}

func TestParseMode(t *testing.T) {
	for _, m := range []Mode{ModeScratchpad, ModeCache, ModeSIMT} {
		if got, err := ParseMode(m.String()); err != nil || got != m {
			t.Errorf("ParseMode(%q) = %v, %v", m, got, err)
		}
	}
	for _, s := range []string{"", "bogus", "SIMT", "mode?3"} {
		if _, err := ParseMode(s); err == nil || !strings.Contains(err.Error(), "scratchpad, cache or simt") {
			t.Errorf("ParseMode(%q) error = %v, want the mode vocabulary", s, err)
		}
	}
}

func TestParseILP(t *testing.T) {
	for in, want := range map[string]string{"": "", "base": "", "D": "D", "FD": "FD", "DRSF": "DRSF"} {
		if got, err := ParseILP(in); err != nil || got != want {
			t.Errorf("ParseILP(%q) = %q, %v; want %q", in, got, err, want)
		}
	}
	for in, want := range map[string]string{"X": `feature "X"`, "DD": `feature "D"`, "Dbase": `feature "b"`, "d": `feature "d"`, "DRSFD": `feature "D"`} {
		_, err := ParseILP(in)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), "DRSF") {
			t.Errorf("ParseILP(%q) error = %v, want it to name %s and the DRSF vocabulary", in, err, want)
		}
	}
}

func TestValidationCatchesBadConfigs(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		sub    string
	}{
		{"bad freq", func(c *Config) { c.FreqMHz = 333 }, "divide"},
		{"bad dram freq", func(c *Config) { c.DRAMFreqMHz = 999 }, "divide"},
		{"zero revolver", func(c *Config) { c.RevolverCycles = 0 }, "revolver"},
		{"zero tasklets", func(c *Config) { c.NumTasklets = 0 }, "tasklet"},
		{"too many tasklets", func(c *Config) { c.NumTasklets = 25 }, "maximum"},
		{"iram not word multiple", func(c *Config) { c.IRAMBytes = 1000 }, "6-byte"},
		{"bad burst", func(c *Config) { c.BurstBytes = 12 }, "burst"},
		{"bad issue width", func(c *Config) { c.IssueWidth = 3 }, "issue width"},
		{"zero link", func(c *Config) { c.LinkBytesPerCycle = 0 }, "link"},
		{"row not burst multiple", func(c *Config) { c.RowBytes = 1020 }, "row"},
		{"atomic too big", func(c *Config) { c.AtomicLocks = 512 }, "atomic"},
		{"zero comm bw", func(c *Config) { c.CPUToDPUBytesPerSec = 0 }, "bandwidth"},
		{"bad mmu", func(c *Config) { c.MMU.Enable = true; c.MMU.TLBSize = 0 }, "MMU"},
		{"bad dram timing", func(c *Config) { c.TRCD = 0 }, "timing"},
		{"icache line not a power of two", func(c *Config) { c.Mode = ModeCache; c.ICache.LineBytes = 48 }, "power of two"},
		{"dcache line not a power of two", func(c *Config) { c.Mode = ModeCache; c.DCache.LineBytes = 96 }, "power of two"},
		{"zero cache line", func(c *Config) { c.Mode = ModeCache; c.DCache.LineBytes = 0 }, "power of two"},
		{"line not burst multiple", func(c *Config) { c.Mode = ModeCache; c.BurstBytes = 128; c.RowBytes = 1024 }, "multiple of the burst"},
		{"line smaller than a wide burst", func(c *Config) { c.Mode = ModeCache; c.BurstBytes = 24; c.RowBytes = 1008 }, "multiple of the burst"},
		// What the vector engine would silently ignore is refused by name.
		{"simt + forwarding", func(c *Config) { c.Mode = ModeSIMT; c.Forwarding = true }, "pipeline; Forwarding is not modelled"},
		{"simt + unified RF", func(c *Config) { c.Mode = ModeSIMT; c.UnifiedRF = true }, "pipeline; UnifiedRF is not modelled"},
		{"simt + superscalar", func(c *Config) { c.Mode = ModeSIMT; c.IssueWidth = 2 }, "pipeline; IssueWidth other than 1 is not modelled"},
		{"simt + mmu", func(c *Config) { c.Mode = ModeSIMT; c.MMU.Enable = true }, "pipeline; MMU.Enable is not modelled"},
	}
	for _, c := range cases {
		cfg := Default()
		c.mutate(&cfg)
		err := cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.sub) {
			t.Errorf("%s: err = %v, want substring %q", c.name, err, c.sub)
		}
	}
}

// Cache geometry only binds the organisation that has caches: a scratchpad
// configuration may carry any (unused) cache section.
func TestCacheGeometryOnlyCheckedInCacheMode(t *testing.T) {
	cfg := Default()
	cfg.ICache.LineBytes = 48
	if err := cfg.Validate(); err != nil {
		t.Fatalf("scratchpad config rejected for its unused I-cache: %v", err)
	}
	cfg.Mode = ModeCache
	if err := cfg.Validate(); err == nil {
		t.Fatal("cache-mode config with a 48-byte line accepted")
	}
}

func TestSIMTAllowsManyTasklets(t *testing.T) {
	cfg := Default()
	cfg.Mode = ModeSIMT
	cfg.NumTasklets = 256 // more than MaxTasklets, legal for the vector RF
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestIRAMCapacity(t *testing.T) {
	if got := Default().IRAMCapacity(); got != 4096 {
		t.Fatalf("IRAM capacity = %d instructions, want 4096 (24KB / 6B)", got)
	}
}

func TestCyclesToSeconds(t *testing.T) {
	cfg := Default()
	if got := cfg.CyclesToSeconds(350_000_000); got != 1.0 {
		t.Fatalf("350M cycles at 350MHz = %g s, want 1", got)
	}
	fast := cfg.WithILP("F")
	if got := fast.CyclesToSeconds(350_000_000); got != 0.5 {
		t.Fatalf("350M cycles at 700MHz = %g s, want 0.5", got)
	}
}

func TestModeString(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeScratchpad: "scratchpad", ModeCache: "cache", ModeSIMT: "simt",
	} {
		if m.String() != want {
			t.Errorf("%d.String() = %q", int(m), m.String())
		}
	}
}
