package dist

import (
	"testing"

	"locsample/internal/chains"
	"locsample/internal/csp"
	"locsample/internal/graph"
	"locsample/internal/mrf"
)

// TestLubyGlauberMatchesCentralized pins the determinism contract: the
// message-passing protocol reproduces the centralized chain bit-for-bit on
// coloring, hardcore and Ising models.
func TestLubyGlauberMatchesCentralized(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *mrf.MRF
	}{
		{"coloring", mrf.Coloring(graph.Cycle(20), 5)},
		{"hardcore", mrf.Hardcore(graph.Grid(4, 5), 0.9)},
		{"ising", mrf.Ising(graph.Torus(4, 4), 0.8, 0.5)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			init, err := chains.GreedyFeasible(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			const seed, rounds = 99, 30
			s := chains.NewSampler(tc.m, init, seed, chains.LubyGlauber, chains.Options{})
			s.Run(rounds)
			out, stats, err := RunMRF(tc.m, chains.LubyGlauber, init, seed, rounds, false)
			if err != nil {
				t.Fatal(err)
			}
			for v := range out {
				if out[v] != s.X[v] {
					t.Fatalf("trajectories diverge at vertex %d: dist=%d central=%d", v, out[v], s.X[v])
				}
			}
			if stats.Messages == 0 {
				t.Fatal("no messages exchanged")
			}
			if stats.MaxMessageBytes > 8 {
				t.Fatalf("message too large: %d bytes", stats.MaxMessageBytes)
			}
		})
	}
}

// TestLocalMetropolisMatchesCentralized covers both the §4.2 coloring fast
// path and the general activity path (where the per-edge product must agree
// bit-for-bit across endpoints), with and without rule 3.
func TestLocalMetropolisMatchesCentralized(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    *mrf.MRF
		drop bool
	}{
		{"coloring", mrf.Coloring(graph.Cycle(20), 8), false},
		{"coloring-q12", mrf.Coloring(graph.Grid(5, 5), 12), false},
		{"coloring-droprule3", mrf.Coloring(graph.Cycle(16), 8), true},
		{"ising", mrf.Ising(graph.Grid(4, 4), 1.1, 0.7), false},
		{"potts", mrf.Potts(graph.Torus(4, 4), 3, 0.9), false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			init, err := chains.GreedyFeasible(tc.m)
			if err != nil {
				t.Fatal(err)
			}
			const seed, rounds = 7, 25
			s := chains.NewSampler(tc.m, init, seed, chains.LocalMetropolis,
				chains.Options{DropRule3: tc.drop})
			s.Run(rounds)
			out, stats, err := RunMRF(tc.m, chains.LocalMetropolis, init, seed, rounds, tc.drop)
			if err != nil {
				t.Fatal(err)
			}
			for v := range out {
				if out[v] != s.X[v] {
					t.Fatalf("trajectories diverge at vertex %d: dist=%d central=%d", v, out[v], s.X[v])
				}
			}
			if stats.MaxMessageBytes != 4 {
				t.Fatalf("LocalMetropolis messages must be 4 bytes, got %d", stats.MaxMessageBytes)
			}
		})
	}
}

// TestCSPLubyGlauberMatchesCentralized checks the two-round relay protocol
// against the centralized hypergraph chain on dominating-set CSPs, whose
// hypergraph neighborhoods reach graph distance 2.
func TestCSPLubyGlauberMatchesCentralized(t *testing.T) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
	}{
		{"grid4x4", graph.Grid(4, 4)},
		{"cycle9", graph.Cycle(9)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := csp.DominatingSet(tc.g)
			init := make([]int, c.N)
			for i := range init {
				init[i] = 1
			}
			const seed, rounds = 2017, 20
			x := append([]int(nil), init...)
			sc := csp.NewScratch(c)
			for k := 0; k < rounds; k++ {
				csp.LubyGlauberRoundPRF(c, x, seed, k, sc)
			}
			out, stats, err := RunCSPLubyGlauber(tc.g, c, init, seed, rounds)
			if err != nil {
				t.Fatal(err)
			}
			for v := range out {
				if out[v] != x[v] {
					t.Fatalf("trajectories diverge at vertex %d: dist=%d central=%d", v, out[v], x[v])
				}
			}
			if got, want := stats.Rounds, 2*rounds+1; got != want {
				t.Fatalf("protocol used %d rounds, want %d (two per chain iteration)", got, want)
			}
		})
	}
}

// TestCSPScopeRadiusValidation: a constraint spanning graph distance > 2 is
// out of relay reach and must be rejected.
func TestCSPScopeRadiusValidation(t *testing.T) {
	g := graph.Path(4)
	b := [][]float64{{1, 1}, {1, 1}, {1, 1}, {1, 1}}
	c, err := csp.New(4, 2, b, []csp.Constraint{{
		Scope: []int32{0, 3},
		F:     func(vals []int) float64 { return float64(vals[0] + vals[1]) },
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := RunCSPLubyGlauber(g, c, []int{1, 1, 1, 1}, 1, 5); err == nil {
		t.Fatal("scope of radius > 1 accepted")
	}
}

// TestRunMIS checks Luby's protocol produces a maximal independent set in
// O(log n)-scale rounds, deterministically per seed.
func TestRunMIS(t *testing.T) {
	for _, g := range []*graph.Graph{graph.Cycle(64), graph.Grid(8, 8), graph.Complete(10)} {
		out, stats, err := RunMIS(g, 5, 10000)
		if err != nil {
			t.Fatal(err)
		}
		if !g.IsMaximalIndependentSet(out) {
			t.Fatal("output is not a maximal independent set")
		}
		if stats.Rounds >= 10000 {
			t.Fatalf("suspiciously many rounds: %d", stats.Rounds)
		}
		again, _, err := RunMIS(g, 5, 10000)
		if err != nil {
			t.Fatal(err)
		}
		for v := range out {
			if out[v] != again[v] {
				t.Fatal("same seed produced different MIS")
			}
		}
	}
}
