package locsample_test

import (
	"reflect"
	"testing"

	"locsample"
)

// TestWithParallelRoundsBitIdentical pins the vertex-parallel mode's
// contract at the public API: a draw on a parallel-rounds sampler equals
// the same draw on a sequential one, chain for chain and byte for byte, at every
// worker count.
func TestWithParallelRoundsBitIdentical(t *testing.T) {
	g := locsample.GridGraph(11, 13)
	for _, tc := range []struct {
		name string
		m    *locsample.Model
		alg  locsample.Algorithm
	}{
		{"coloring-lm", locsample.NewColoring(g, 13), locsample.LocalMetropolis},
		{"ising-lm", locsample.NewIsing(g, 0.3, 0.9), locsample.LocalMetropolis},
		{"ising-luby", locsample.NewIsing(g, 0.3, 0.9), locsample.LubyGlauber},
	} {
		base, err := locsample.NewSampler(tc.m,
			locsample.WithAlgorithm(tc.alg), locsample.WithSeed(5), locsample.WithRounds(25))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, err := base.SampleNFrom(5, 6)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, par := range []int{2, 3, 8} {
			s, err := locsample.NewSampler(tc.m,
				locsample.WithAlgorithm(tc.alg), locsample.WithSeed(5), locsample.WithRounds(25),
				locsample.WithParallelRounds(par))
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", tc.name, par, err)
			}
			if s.ParallelRounds() != par {
				t.Fatalf("%s: ParallelRounds() = %d, want %d", tc.name, s.ParallelRounds(), par)
			}
			got, err := s.SampleNFrom(5, 6)
			if err != nil {
				t.Fatalf("%s parallel=%d: %v", tc.name, par, err)
			}
			if !reflect.DeepEqual(got.Samples, want.Samples) {
				t.Fatalf("%s parallel=%d: parallel batch diverges from sequential", tc.name, par)
			}
		}
	}
}

// TestWithParallelRoundsDefaultsToGOMAXPROCS: n <= 0 resolves to GOMAXPROCS
// at option-application time.
func TestWithParallelRoundsDefaultsToGOMAXPROCS(t *testing.T) {
	m := locsample.NewColoring(locsample.GridGraph(6, 6), 13)
	s, err := locsample.NewSampler(m, locsample.WithRounds(5), locsample.WithParallelRounds(0))
	if err != nil {
		t.Fatal(err)
	}
	if s.ParallelRounds() < 1 {
		t.Fatalf("ParallelRounds() = %d after WithParallelRounds(0)", s.ParallelRounds())
	}
}

// TestWithParallelRoundsRejects: the sequential baselines and the other two
// runtimes are rejected at compile time.
func TestWithParallelRoundsRejects(t *testing.T) {
	m := locsample.NewColoring(locsample.GridGraph(6, 6), 13)
	if _, err := locsample.NewSampler(m,
		locsample.WithAlgorithm(locsample.Glauber), locsample.WithRounds(5),
		locsample.WithParallelRounds(4)); err == nil {
		t.Fatal("Glauber accepted parallel rounds")
	}
	if _, err := locsample.NewSampler(m,
		locsample.WithRounds(5), locsample.WithShards(2),
		locsample.WithParallelRounds(4)); err == nil {
		t.Fatal("WithShards + WithParallelRounds accepted")
	}
	if _, err := locsample.Sample(m,
		locsample.WithRounds(5), locsample.Distributed(),
		locsample.WithParallelRounds(4)); err == nil {
		t.Fatal("Distributed + WithParallelRounds accepted")
	}
	if _, err := locsample.Sample(m,
		locsample.WithRounds(5), locsample.WithAlgorithm(locsample.SystematicScan),
		locsample.WithParallelRounds(4)); err == nil {
		t.Fatal("package-level Sample accepted SystematicScan parallel rounds")
	}
}

// TestSampleWithParallelRounds: the package-level Sample agrees with the
// sequential path under parallel rounds.
func TestSampleWithParallelRounds(t *testing.T) {
	m := locsample.NewColoring(locsample.GridGraph(9, 9), 13)
	want, err := locsample.Sample(m, locsample.WithSeed(3), locsample.WithRounds(20))
	if err != nil {
		t.Fatal(err)
	}
	got, err := locsample.Sample(m, locsample.WithSeed(3), locsample.WithRounds(20),
		locsample.WithParallelRounds(4))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatal("parallel-rounds Sample diverges from sequential Sample")
	}
}
