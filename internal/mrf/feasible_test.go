package mrf

import (
	"testing"

	"locsample/internal/graph"
)

// TestFeasibleLargeGraphPositiveWeight: on a 64² grid the weight of a
// positive configuration underflows to 0, and Feasible must still report
// it feasible, while a configuration with one zero factor stays
// infeasible.
func TestFeasibleLargeGraphPositiveWeight(t *testing.T) {
	g := graph.Grid(64, 64)
	m := Ising(g, 1, 0.5)
	checker := make([]int, g.N())
	for v := range checker {
		checker[v] = (v/64 + v%64) % 2
	}
	if w := m.Weight(checker); w != 0 {
		t.Fatalf("checkerboard weight %v did not underflow; the test no longer covers the defect", w)
	}
	if !m.Feasible(checker) {
		t.Fatal("checkerboard Ising configuration reported infeasible")
	}

	hc := Hardcore(g, 0.5)
	occupied := append([]int(nil), checker...)
	if !hc.Feasible(occupied) {
		t.Fatal("checkerboard independent set reported infeasible")
	}
	occupied[0] = 1 // joins its occupied neighbor 1
	if hc.Feasible(occupied) {
		t.Fatal("adjacent occupied pair reported feasible")
	}
}
