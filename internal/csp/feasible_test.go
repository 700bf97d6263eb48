package csp

import (
	"testing"

	"locsample/internal/graph"
)

// TestFeasibleLargeWeightedDominatingSet: with every vertex of a 64² grid
// in the set, the weight λ^4096 underflows to 0 at λ = 0.3 and 0.5, and
// Feasible must still report the configuration feasible; leaving a vertex
// and all its neighbors out stays infeasible.
func TestFeasibleLargeWeightedDominatingSet(t *testing.T) {
	g := graph.Grid(64, 64)
	for _, lambda := range []float64{0.3, 0.5} {
		c := WeightedDominatingSet(g, lambda)
		all := make([]int, c.N)
		for v := range all {
			all[v] = 1
		}
		if w := c.Weight(all); w != 0 {
			t.Fatalf("λ=%v: weight %v did not underflow; the test no longer covers the defect", lambda, w)
		}
		if !c.Feasible(all) {
			t.Fatalf("λ=%v: the full set reported infeasible", lambda)
		}
		all[0], all[1], all[64] = 0, 0, 0 // vertex 0 and its neighbors
		if c.Feasible(all) {
			t.Fatalf("λ=%v: undominated vertex 0 reported feasible", lambda)
		}
	}
}
