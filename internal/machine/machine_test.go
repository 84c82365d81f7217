package machine_test

import (
	"bytes"
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

func TestCodecRoundTrip(t *testing.T) {
	d := machine.HBMPIM()
	var buf bytes.Buffer
	if err := d.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := machine.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := d.Encode(&a); err != nil {
		t.Fatal(err)
	}
	if err := got.Encode(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("round trip changed the description:\n%s\nvs\n%s", a.String(), b.String())
	}
}

func TestDecodeStrict(t *testing.T) {
	encode := func(d *machine.Desc) string {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	valid := encode(machine.HBMPIM())
	for _, tc := range []struct {
		name, input, wantErr string
	}{
		{"unknown field", strings.Replace(valid, `"arch"`, `"arch_name"`, 1), "unknown field"},
		{"wrong format", strings.Replace(valid, `"format": 1`, `"format": 99`, 1), "declares format 99"},
		{"missing format", strings.Replace(valid, `"format": 1`, `"format": 0`, 1), "declares format 0"},
		{"trailing content", valid + "{}", "trailing content"},
		{"zero channels", strings.Replace(valid, `"channels": 64`, `"channels": 0`, 1), "channels must be positive"},
		{"bad command mode", strings.Replace(valid, `"command_mode": "all-bank"`, `"command_mode": "warp"`, 1), "unknown command mode"},
		{"ragged row", strings.Replace(valid, `"row_bytes": 1024`, `"row_bytes": 1000`, 1), "multiple of the column size"},
		{"garbage", "{nope", "decoding description"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := machine.Decode(strings.NewReader(tc.input))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

// TestDecodeTrailing: whatever follows the description is refused,
// including a stray closing bracket.
func TestDecodeTrailing(t *testing.T) {
	var buf bytes.Buffer
	if err := machine.HBMPIM().Encode(&buf); err != nil {
		t.Fatal(err)
	}
	for _, tail := range []string{"}", "]", " {}", "x"} {
		_, err := machine.Decode(strings.NewReader(buf.String() + tail))
		if err == nil || !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("tail %q: error = %v, want trailing content", tail, err)
		}
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

// FuzzMachineDecode holds the strict machine-description decoder to three
// properties: no input panics, a description it accepts passes Validate, and
// Encode of an accepted description is a fixed point of Decode.
func FuzzMachineDecode(f *testing.F) {
	encode := func(d *machine.Desc) []byte {
		var buf bytes.Buffer
		if err := d.Encode(&buf); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Add(encode(machine.UPMEM()))
	f.Add(encode(machine.HBMPIM()))
	f.Add(append(encode(machine.HBMPIM()), '}'))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := machine.Decode(bytes.NewReader(data))
		if err != nil {
			return // refused input: only the no-panic guarantee applies
		}
		if err := d.Validate(); err != nil {
			t.Fatalf("Decode accepted a description that fails Validate: %v", err)
		}
		var a bytes.Buffer
		if err := d.Encode(&a); err != nil {
			t.Fatalf("accepted description does not encode: %v", err)
		}
		again, err := machine.Decode(bytes.NewReader(a.Bytes()))
		if err != nil {
			t.Fatalf("encoded description does not decode: %v\n%s", err, a.Bytes())
		}
		var b bytes.Buffer
		if err := again.Encode(&b); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a.Bytes(), b.Bytes()) {
			t.Fatalf("Encode is not a fixed point:\n%s\n->\n%s", a.Bytes(), b.Bytes())
		}
	})
}
