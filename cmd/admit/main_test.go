package main

import (
	"slices"
	"testing"
)

func TestParseDelays(t *testing.T) {
	got, err := parseDelays("2, 5,0,30.5")
	if err != nil || !slices.Equal(got, []float64{2, 5, 0, 30.5}) {
		t.Fatalf("parseDelays = %v, %v; want [2 5 0 30.5]", got, err)
	}
	for _, bad := range []string{"nan", "NaN", "2,nan", "inf", "+Inf", "-inf", "-1", "", "2,,5", "x"} {
		if ds, err := parseDelays(bad); err == nil {
			t.Errorf("parseDelays(%q) = %v, want an error", bad, ds)
		}
	}
}
