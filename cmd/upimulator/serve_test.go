package main

import (
	"reflect"
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
