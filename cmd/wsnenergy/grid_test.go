package main

import (
	"math"
	"strings"
	"testing"

	"repro/internal/experiments"
)

// TestParseValuesRangeHitsDecimalPoints: a range yields the same float64
// values as the decimal literals it spans, so the default -pdts is exactly
// the paper's PDT axis (same configs, cache keys and derived seeds as
// Table 4) and ends at PDT = 1.
func TestParseValuesRangeHitsDecimalPoints(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []float64
	}{
		{"0:1:0.1", experiments.Default().PDTs},
		{"0.001:0.005:0.001", []float64{0.001, 0.002, 0.003, 0.004, 0.005}},
		{"0.5:0.5:0.1", []float64{0.5}},
		{"0:10:2.5", []float64{0, 2.5, 5, 7.5, 10}},
		{"0.001,0.3,10", []float64{0.001, 0.3, 10}},
	} {
		got, err := parseValues(tc.spec)
		if err != nil {
			t.Fatalf("%s: %v", tc.spec, err)
		}
		if len(got) != len(tc.want) {
			t.Fatalf("%s: %v, want %v", tc.spec, got, tc.want)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(tc.want[i]) {
				t.Fatalf("%s: point %d = %v, want %v", tc.spec, i, got[i], tc.want[i])
			}
		}
	}
}

func TestParseValuesRejectsBadSpecs(t *testing.T) {
	for spec, want := range map[string]string{
		"1:0:0.1":     "invalid range",
		"0:1:0":       "invalid range",
		"0:1:-0.1":    "invalid range",
		"0:1:nan":     "invalid range",
		"0:inf:1":     "invalid range",
		"a:1:0.1":     "invalid range",
		"0:1":         "range must be lo:hi:step",
		"0:1e12:1e-9": "invalid range",
		"0,x":         "invalid value",
		"":            "invalid value",
	} {
		if _, err := parseValues(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("parseValues(%q) = %v, want an error containing %q", spec, err, want)
		}
	}
}
