package machine_test

import (
	"strings"
	"testing"

	"upim/internal/machine"
)

func TestCommittedDescriptionsValidate(t *testing.T) {
	for _, name := range machine.Names() {
		d, err := machine.Named(name)
		if err != nil {
			t.Fatalf("Named(%q): %v", name, err)
		}
		if err := d.Validate(); err != nil {
			t.Errorf("committed description %q invalid: %v", name, err)
		}
		if d.Arch != name {
			t.Errorf("Named(%q) returned arch %q", name, d.Arch)
		}
	}
}

func TestNamedReturnsFreshCopies(t *testing.T) {
	a, _ := machine.Named(machine.ArchHBMPIM)
	b, _ := machine.Named(machine.ArchHBMPIM)
	a.Channels = 1
	a.MemLevels[0].Bytes = 7
	if b.Channels == 1 || b.MemLevels[0].Bytes == 7 {
		t.Fatal("Named shares state between calls")
	}
}

func TestNamedUnknown(t *testing.T) {
	_, err := machine.Named("tpu")
	if err == nil || !strings.Contains(err.Error(), "unknown architecture") {
		t.Fatalf("want unknown-architecture error, got %v", err)
	}
}

// TestValidateRejects: a description with a wrong or missing format, or
// inconsistent values, fails Validate with an error naming the fault.
func TestValidateRejects(t *testing.T) {
	for _, tc := range []struct {
		name    string
		mut     func(*machine.Desc)
		wantErr string
	}{
		{"wrong format", func(d *machine.Desc) { d.Format = 99 }, "declares format 99"},
		{"missing format", func(d *machine.Desc) { d.Format = 0 }, "declares format 0"},
		{"zero channels", func(d *machine.Desc) { d.Channels = 0 }, "channels must be positive"},
		{"bad command mode", func(d *machine.Desc) { d.CommandMode = "warp" }, "unknown command mode"},
		{"ragged row", func(d *machine.Desc) { d.RowBytes = 1000 }, "multiple of the column size"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d := machine.HBMPIM()
			tc.mut(d)
			if err := d.Validate(); err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestLanesAndCost(t *testing.T) {
	if got := machine.UPMEM().Lanes(); got != 1 {
		t.Fatalf("UPMEM lanes = %d, want 1", got)
	}
	if got := machine.UPMEM().ArchCost(); got != 0 {
		t.Fatalf("UPMEM arch cost = %v, want 0", got)
	}
	if got := machine.HBMPIM().Lanes(); got != 128 {
		t.Fatalf("HBM-PIM lanes = %d, want 128 (8 PUs x 16 MACs)", got)
	}
	if got := machine.HBMPIM().ArchCost(); got != 7 {
		t.Fatalf("HBM-PIM arch cost = %v, want 7 (log2 128)", got)
	}
}

// TestBackendRegistry: every architecture name resolves to both a backend
// and a description, "" selects the UPMEM backend, and an unknown name
// fails.
func TestBackendRegistry(t *testing.T) {
	for _, n := range machine.Names() {
		if _, err := machine.BackendFor(n); err != nil {
			t.Errorf("BackendFor(%q): %v", n, err)
		}
		if _, err := machine.Named(n); err != nil {
			t.Errorf("Named(%q): %v", n, err)
		}
	}
	upmem, err := machine.BackendFor(machine.ArchUPMEM)
	if err != nil {
		t.Fatal(err)
	}
	if be, err := machine.BackendFor(""); err != nil || be != upmem {
		t.Fatalf("BackendFor(\"\") = %v, %v; want the UPMEM backend", be, err)
	}
	if _, err := machine.BackendFor("tpu"); err == nil {
		t.Fatal("BackendFor should reject unknown architectures")
	}
}
