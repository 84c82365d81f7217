package estimate

import (
	"bytes"
	"strings"
	"testing"
)

// committedArtifact returns the embedded default calibration's canonical
// bytes — the one known-good Load input.
func committedArtifact(t testing.TB) []byte {
	t.Helper()
	data, err := Default().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// mutate applies a single string substitution to the committed artifact and
// asserts it actually changed something (so a refactor of the JSON layout
// can't silently turn a rejection test into a no-op).
func mutate(t *testing.T, old, new string) []byte {
	t.Helper()
	base := committedArtifact(t)
	out := bytes.Replace(base, []byte(old), []byte(new), 1)
	if bytes.Equal(out, base) {
		t.Fatalf("mutation %q -> %q did not apply", old, new)
	}
	return out
}

// TestLoadRejects pins the strictness contract of the calibration loader: a
// machine-generated artifact is either exactly what `pathfind calibrate`
// wrote or it is an error — never a best-effort parse.
func TestLoadRejects(t *testing.T) {
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"unknown field", mutate(t, `"name": "default"`, `"name": "default", "surprise": 1`), "unknown field"},
		{"negative weight", mutate(t, `"issue": `, `"issue": -`), "negative or NaN"},
		{"nan via string", mutate(t, `"issue": `, `"issue": "NaN", "was_issue": `), "cannot unmarshal string"},
		{"cover share above one", mutate(t, `"mem_cover_issue": 0`, `"mem_cover_issue": 1.5`), "outside [0, 1]"},
		{"stale format", mutate(t, `"format": 2`, `"format": 1`), "declares format"},
		{"trailing content", append(committedArtifact(t), []byte("{}\n")...), "trailing content"},
		{"trailing garbage", append(committedArtifact(t), []byte("not json")...), ""},
		{"empty name", mutate(t, `"name": "default"`, `"name": ""`), "needs a name"},
		{"negative bound", mutate(t, `"max_rel_err": `, `"max_rel_err": -`), "negative or NaN"},
		{"negative counter", mutate(t, `"Cycles": `, `"Cycles": -`), "cannot unmarshal"},
		{"negative slot bucket", mutate(t, `"Issued": `, `"Issued": -`), "Issued is negative"},
		{"truncated", committedArtifact(t)[:100], ""},
		{"empty", nil, ""},
		{"not an object", []byte(`[1, 2, 3]`), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Load(bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("malformed calibration accepted")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestLoadTrailing: whatever follows the artifact is refused, including a
// stray closing bracket.
func TestLoadTrailing(t *testing.T) {
	for _, tail := range []string{"}", "]", " {}", "x"} {
		_, err := Load(bytes.NewReader(append(committedArtifact(t), tail...)))
		if err == nil || !strings.Contains(err.Error(), "trailing content") {
			t.Errorf("tail %q: error = %v, want trailing content", tail, err)
		}
	}
}

func TestLoadRoundTrip(t *testing.T) {
	cal, err := Load(bytes.NewReader(committedArtifact(t)))
	if err != nil {
		t.Fatal(err)
	}
	again, err := cal.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, committedArtifact(t)) {
		t.Fatal("Load -> Marshal is not the identity on the committed artifact")
	}
}

// FuzzLoadCalibration exercises the strict loader with arbitrary bytes: it
// must never panic, and anything it accepts must validate, survive a
// marshal/reload round trip, and build a working estimator.
func FuzzLoadCalibration(f *testing.F) {
	f.Add(committedArtifact(f))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"name":"x","format":2}`))
	f.Add([]byte(`{"name":"x","format":2,"weights":{"issue":1e308}}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		cal, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := cal.Validate(); err != nil {
			t.Fatalf("Load accepted a calibration that fails Validate: %v", err)
		}
		out, err := cal.Marshal()
		if err != nil {
			t.Fatalf("accepted calibration does not marshal: %v", err)
		}
		if _, err := Load(bytes.NewReader(out)); err != nil {
			t.Fatalf("marshal of an accepted calibration does not reload: %v", err)
		}
		if _, err := New(cal, nil); err != nil {
			t.Fatalf("accepted calibration does not build an estimator: %v", err)
		}
	})
}
