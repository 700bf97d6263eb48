package core

import (
	"math"
	"testing"

	"locsample/internal/chains"
	"locsample/internal/graph"
	"locsample/internal/mrf"
)

func TestLubyGlauberRounds(t *testing.T) {
	r1, err := LubyGlauberRounds(100, 4, 0.5, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if r1 <= 0 {
		t.Fatalf("budget %d", r1)
	}
	// Budget grows with Δ (linearly up to rounding) and with 1/(1−α).
	r2, _ := LubyGlauberRounds(100, 8, 0.5, 0.01)
	if r2 <= r1 {
		t.Fatalf("budget not increasing in Δ: %d vs %d", r1, r2)
	}
	r3, _ := LubyGlauberRounds(100, 4, 0.9, 0.01)
	if r3 <= r1 {
		t.Fatalf("budget not increasing in α: %d vs %d", r1, r3)
	}
	// Grows logarithmically in n: doubling n adds ~(1/γ)ln2.
	r4, _ := LubyGlauberRounds(200, 4, 0.5, 0.01)
	if r4 <= r1 || r4 > r1+40 {
		t.Fatalf("n-scaling looks wrong: %d vs %d", r1, r4)
	}
	if _, err := LubyGlauberRounds(10, 3, 1.0, 0.1); err == nil {
		t.Fatal("α = 1 accepted")
	}
	if _, err := LubyGlauberRounds(10, 3, 0.5, 0); err == nil {
		t.Fatal("ε = 0 accepted")
	}
}

func TestLocalMetropolisRoundsColoring(t *testing.T) {
	// q = 4Δ is deep in the proved regime for large Δ.
	r1, err := LocalMetropolisRoundsColoring(1000, 50, 200, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	// The budget is Δ-free: the same q/Δ ratio at double Δ gives a similar
	// budget (only the log n·Δ term moves).
	r2, err := LocalMetropolisRoundsColoring(1000, 100, 400, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if float64(r2) > 1.3*float64(r1) {
		t.Fatalf("LocalMetropolis budget grew with Δ: %d vs %d", r1, r2)
	}
	// q below the threshold errors.
	if _, err := LocalMetropolisRoundsColoring(1000, 50, 120, 0.01); err == nil {
		t.Fatal("q = 2.4Δ accepted")
	}
	// Isolated-vertex graph works.
	if r, err := LocalMetropolisRoundsColoring(10, 0, 3, 0.1); err != nil || r != 1 {
		t.Fatalf("Δ=0: %d, %v", r, err)
	}
}

func TestAutoRoundsColoring(t *testing.T) {
	g := graph.Torus(5, 5)
	m := mrf.Coloring(g, 16) // q = 4Δ
	lm, err := AutoRounds(m, chains.LocalMetropolis, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := AutoRounds(m, chains.LubyGlauber, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if lm <= 0 || lg <= 0 || lm >= lg {
		t.Fatalf("budgets lm=%d lg=%d", lm, lg)
	}
}

func TestAutoRoundsHardcoreFallsBackToInfluence(t *testing.T) {
	// Small hardcore model in the uniqueness regime: the exact influence
	// matrix is computable and α < 1, so the Dobrushin budget applies.
	g := graph.Cycle(6)
	m := mrf.Hardcore(g, 0.5)
	r, err := AutoRounds(m, chains.LubyGlauber, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if r <= 0 {
		t.Fatalf("budget %d", r)
	}
}

func TestIsColoringModel(t *testing.T) {
	g := graph.Path(3)
	if !mrf.Coloring(g, 3).IsColoringModel() {
		t.Fatal("coloring not recognized")
	}
	if mrf.Hardcore(g, 1).IsColoringModel() {
		t.Fatal("hardcore recognized as coloring")
	}
	if mrf.Potts(g, 3, 0.5).IsColoringModel() {
		t.Fatal("soft Potts recognized as coloring")
	}
}

func TestAutoRoundsHeuristicFallback(t *testing.T) {
	// A large non-coloring model outside the exact-influence budget must
	// fall back to the heuristic: finite, positive, and LocalMetropolis's
	// heuristic is Δ-free while LubyGlauber's grows with Δ.
	g := graph.Star(300) // Δ = 299, too many states for exact influence
	m := mrf.Hardcore(g, 3.0)
	lm, err := AutoRounds(m, chains.LocalMetropolis, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	lg, err := AutoRounds(m, chains.LubyGlauber, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if lm <= 0 || lg <= 0 {
		t.Fatalf("budgets %d, %d", lm, lg)
	}
	if lg <= lm {
		t.Fatalf("heuristic LubyGlauber budget %d should exceed LocalMetropolis %d at Δ=299", lg, lm)
	}
}

func TestSampleErrors(t *testing.T) {
	m := mrf.Coloring(graph.Cycle(3), 2) // infeasible model
	if _, _, _, err := Compile(m, Config{Rounds: 10}); err == nil {
		t.Fatal("impossible model accepted")
	}
	m2 := mrf.Coloring(graph.Cycle(6), 5)
	if _, _, _, err := Compile(m2, Config{Rounds: 5, Init: []int{0}}); err == nil {
		t.Fatal("short init accepted")
	}
	for _, alg := range []chains.Algorithm{chains.Glauber, chains.SystematicScan, chains.ChromaticGlauber} {
		if _, _, _, err := Compile(m2, Config{Rounds: 5, Algorithm: alg, Distributed: true}); err == nil {
			t.Fatalf("distributed %v accepted", alg)
		}
	}
	for _, alg := range []chains.Algorithm{chains.LubyGlauber, chains.LocalMetropolis} {
		if _, _, _, err := Compile(m2, Config{Rounds: 5, Algorithm: alg, Distributed: true}); err != nil {
			t.Fatalf("distributed %v rejected: %v", alg, err)
		}
	}
}

func TestSampleDefaultEpsilon(t *testing.T) {
	g := graph.Cycle(10)
	m := mrf.Coloring(g, 8) // q = 4Δ: proved regime
	rounds, theory, _, err := Compile(m, Config{Algorithm: chains.LocalMetropolis, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if theory <= 0 || rounds != theory {
		t.Fatalf("no theory budget recorded: rounds %d, theory %d", rounds, theory)
	}
	want, err := LocalMetropolisRoundsColoring(10, 2, 8, math.Exp(-2))
	if err != nil {
		t.Fatal(err)
	}
	if theory != want {
		t.Fatalf("budget %d, want %d", theory, want)
	}
}
