package locsample_test

import (
	"testing"

	"locsample"
)

// TestWeightedDominatingSetSpecRegistersBelowOne: a 64² weighted
// dominating set at λ < 1 has a configuration weight that underflows to
// 0, yet its specs must build, with the all-ones start pinned or derived.
func TestWeightedDominatingSetSpecRegistersBelowOne(t *testing.T) {
	g := locsample.GridGraph(64, 64)
	init := make([]int, g.N())
	for v := range init {
		init[v] = 1
	}
	for _, lambda := range []float64{0.3, 0.5} {
		for _, withInit := range []bool{true, false} {
			s, err := locsample.NewSpecFromCSP(g, locsample.NewWeightedDominatingSet(g, lambda), init, 32, "wdomset")
			if err != nil {
				t.Fatalf("λ=%v: %v", lambda, err)
			}
			if !withInit {
				s.Model.Init = nil
			}
			data, err := locsample.EncodeSpec(s)
			if err != nil {
				t.Fatal(err)
			}
			parsed, err := locsample.ParseSpec(data)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := locsample.BuildSpec(parsed); err != nil {
				t.Fatalf("λ=%v withInit=%v: %v", lambda, withInit, err)
			}
		}
	}
}
