package main

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

// TestParseNonFinite: ParseFloat accepts "NaN" and "Inf", and a NaN load
// used to pass the "v <= 0" test and hang the serving loop.
func TestParseNonFinite(t *testing.T) {
	got, err := parseLoads("0.5, 0.8,1.1")
	if err != nil || !reflect.DeepEqual(got, []float64{0.5, 0.8, 1.1}) {
		t.Errorf("parseLoads = %v, %v", got, err)
	}
	for _, bad := range []string{"NaN", "0.5,nan", "Inf", "-Inf", "+inf", "0", "-1", "x", "", " , "} {
		if got, err := parseLoads(bad); err == nil {
			t.Errorf("parseLoads(%q) = %v, want an error", bad, got)
		}
	}
	for _, bad := range []string{"a=VA:NaN", "a=VA:Inf", "a=VA:0"} {
		if got, err := parseTenants(bad); err == nil {
			t.Errorf("parseTenants(%q) = %v, want an error", bad, got)
		}
	}
}

// FuzzParseTenants holds the -tenants grammar to the shape the serving model
// relies on, for any input: no panic, and an accepted spec has at least one
// tenant, each named by a trimmed, non-empty string without '=' or ';', with
// a mix of trimmed, non-empty entries without '+', and a weight that is 0
// (unset) or positive and finite.
func FuzzParseTenants(f *testing.F) {
	// The flag default (also the usage example), then specs that must fail.
	for _, seed := range []string{"alpha=VA+RED:3;beta=BS:1", "a=VA:NaN", "a=VA:Inf", "a=VA:0"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		tenants, err := parseTenants(spec)
		if err != nil {
			return
		}
		if len(tenants) == 0 {
			t.Fatalf("parseTenants(%q) accepted no tenants", spec)
		}
		for _, tn := range tenants {
			if tn.Name == "" || tn.Name != strings.TrimSpace(tn.Name) || strings.ContainsAny(tn.Name, "=;") {
				t.Fatalf("parseTenants(%q): tenant name %q", spec, tn.Name)
			}
			if len(tn.Mix) == 0 {
				t.Fatalf("parseTenants(%q): tenant %q has an empty mix", spec, tn.Name)
			}
			for _, b := range tn.Mix {
				if b == "" || b != strings.TrimSpace(b) || strings.Contains(b, "+") {
					t.Fatalf("parseTenants(%q): tenant %q mix entry %q", spec, tn.Name, b)
				}
			}
			if tn.Weight < 0 || math.IsNaN(tn.Weight) || math.IsInf(tn.Weight, 0) {
				t.Fatalf("parseTenants(%q): tenant %q weight %v", spec, tn.Name, tn.Weight)
			}
		}
	})
}
