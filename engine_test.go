package locsample_test

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"locsample"
	"locsample/internal/transport"
)

// TestSampleNMatchesDerivedSeedSamples pins the batch determinism contract:
// chain i of a k-chain draw with master seed s is bit-identical to a single
// Sample with seed ChainSeed(s, i), for every algorithm the engine runs.
func TestSampleNMatchesDerivedSeedSamples(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	for _, tc := range []struct {
		name  string
		model *locsample.Model
		alg   locsample.Algorithm
	}{
		{"localmetropolis-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.LocalMetropolis},
		{"lubyglauber-coloring", locsample.NewColoring(g, 2*g.MaxDeg()+1), locsample.LubyGlauber},
		{"lubyglauber-hardcore", locsample.NewHardcore(g, 0.7), locsample.LubyGlauber},
		{"glauber-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.Glauber},
		{"localmetropolis-ising", locsample.NewIsing(g, 0.9, 0.4), locsample.LocalMetropolis},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, k = 42, 6
			opts := []locsample.Option{
				locsample.WithAlgorithm(tc.alg),
				locsample.WithRounds(40),
			}
			s, err := locsample.NewSampler(tc.model, append(opts, locsample.WithSeed(seed))...)
			if err != nil {
				t.Fatal(err)
			}
			batch, err := s.SampleNFrom(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			if len(batch.Samples) != k || batch.Rounds != 40 {
				t.Fatalf("batch shape: %d samples, %d rounds", len(batch.Samples), batch.Rounds)
			}
			for i := 0; i < k; i++ {
				single, err := locsample.Sample(tc.model,
					append(opts, locsample.WithSeed(locsample.ChainSeed(seed, i)))...)
				if err != nil {
					t.Fatal(err)
				}
				for v := range single.Sample {
					if batch.Samples[i][v] != single.Sample[v] {
						t.Fatalf("chain %d diverges from derived-seed Sample at vertex %d", i, v)
					}
				}
			}
		})
	}
}

// TestSampleNWorkerCountInvariance: results are positionally stable no
// matter how the worker pool carves up the batch.
func TestSampleNWorkerCountInvariance(t *testing.T) {
	g := locsample.TorusGraph(6, 6)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	const seed, k = 11, 12
	var ref *locsample.Batch
	for _, workers := range []int{1, 3, 8} {
		s, err := locsample.NewSampler(model,
			locsample.WithSeed(seed),
			locsample.WithRounds(30),
			locsample.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.SampleNFrom(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			ref = batch
			continue
		}
		for i := range batch.Samples {
			for v := range batch.Samples[i] {
				if batch.Samples[i][v] != ref.Samples[i][v] {
					t.Fatalf("workers=%d changed chain %d at vertex %d", workers, i, v)
				}
			}
		}
	}
}

// TestSampleNDistributed: the one-shot LOCAL-model draw at seed
// ChainSeed(s, i) is chain i of the compiled draw at master seed s, for
// both algorithms with a LOCAL protocol. Compiled samplers themselves
// have no LOCAL runtime.
func TestSampleNDistributed(t *testing.T) {
	g := locsample.CycleGraph(16)
	model := locsample.NewColoring(g, 8)
	const seed, k = 5, 4
	for _, alg := range []locsample.Algorithm{locsample.LubyGlauber, locsample.LocalMetropolis} {
		opts := []locsample.Option{locsample.WithAlgorithm(alg), locsample.WithRounds(20)}
		s, err := locsample.NewSampler(model, opts...)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.Draw(context.Background(), locsample.DrawRequest{Seed: seed, K: k})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < k; i++ {
			res, err := locsample.Sample(model, append(opts,
				locsample.WithSeed(locsample.ChainSeed(seed, i)), locsample.Distributed())...)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Sample, batch.Samples[i]) {
				t.Fatalf("%v: LOCAL draw disagrees with chain %d", alg, i)
			}
			if res.Stats.Messages == 0 || res.Rounds != 20 {
				t.Fatalf("%v: LOCAL draw stats %+v, rounds %d", alg, res.Stats, res.Rounds)
			}
		}
	}
	if _, err := locsample.NewSampler(model, locsample.Distributed()); err == nil {
		t.Fatal("compiled sampler accepted Distributed")
	}
}

// TestDistributedRejectsNonLOCALAlgorithms: Glauber and the scan
// baselines have no LOCAL protocol, so Distributed fails when the options
// are compiled — before a WithRoundsAuto coupling is measured — not when
// the chain would run.
func TestDistributedRejectsNonLOCALAlgorithms(t *testing.T) {
	model := locsample.NewColoring(locsample.GridGraph(6, 6), 13)
	for _, alg := range []locsample.Algorithm{locsample.Glauber, locsample.SystematicScan, locsample.ChromaticGlauber} {
		// WithCoupling(1) is an invalid coupling: a rejection that came
		// only after the WithRoundsAuto measurement was set up would
		// report that instead.
		opts := []locsample.Option{locsample.WithAlgorithm(alg), locsample.Distributed(),
			locsample.WithRoundsAuto(), locsample.WithCoupling(1)}
		_, err := locsample.Sample(model, opts...)
		if err == nil || !strings.Contains(err.Error(), "no LOCAL protocol") {
			t.Fatalf("%v: one-shot Distributed draw: err = %v, want a compile-time rejection", alg, err)
		}
		if _, err := locsample.NewSampler(model, opts...); err == nil {
			t.Fatalf("%v: NewSampler accepted Distributed", alg)
		}
	}
}

// TestSamplerSampleMatchesPackageSample: the compiled sampler's one-chain
// draw at seed s is the package-level Sample at seed ChainSeed(s, 0), bit
// for bit, with the same budget provenance.
func TestSamplerSampleMatchesPackageSample(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	model := locsample.NewColoring(g, 4*g.MaxDeg())
	s, err := locsample.NewSampler(model, locsample.WithEpsilon(0.05))
	if err != nil {
		t.Fatal(err)
	}
	a := drawOne(t, s, locsample.DrawRequest{Seed: 77})
	b, err := locsample.Sample(model, locsample.WithEpsilon(0.05), locsample.WithSeed(locsample.ChainSeed(77, 0)))
	if err != nil {
		t.Fatal(err)
	}
	if a.Rounds != b.Rounds || a.TheoryRounds != b.TheoryRounds {
		t.Fatalf("provenance differs: %+v vs %+v", a, b)
	}
	if !reflect.DeepEqual(a.Samples[0], b.Sample) {
		t.Fatal("compiled draw differs from the package-level Sample")
	}
	if s.Rounds() != a.Rounds || s.TheoryRounds() != a.TheoryRounds {
		t.Fatalf("engine reports rounds=%d theory=%d, draw says %d/%d",
			s.Rounds(), s.TheoryRounds(), a.Rounds, a.TheoryRounds)
	}
}

// TestSampleNValidity: every chain of a large batch is a proper sample of
// its model (exercises the worker pool under the race detector in CI).
func TestSampleNValidity(t *testing.T) {
	g := locsample.GridGraph(10, 10)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(model,
		locsample.WithSeed(1),
		locsample.WithRounds(60),
		locsample.WithWorkers(8))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.SampleNFrom(1, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i, sample := range batch.Samples {
		if !g.IsProperColoring(sample) {
			t.Fatalf("chain %d produced an improper coloring", i)
		}
	}
}

// TestSampleNEdgeCases: k = 0 is an empty batch, negative k is an error.
func TestSampleNEdgeCases(t *testing.T) {
	model := locsample.NewColoring(locsample.CycleGraph(6), 5)
	s, err := locsample.NewSampler(model, locsample.WithRounds(5))
	if err != nil {
		t.Fatal(err)
	}
	empty, err := s.SampleNFrom(0, 0)
	if err != nil || len(empty.Samples) != 0 {
		t.Fatalf("K=0 draw: %v, %d samples", err, len(empty.Samples))
	}
	if _, err := s.SampleNFrom(0, -1); err == nil {
		t.Fatal("negative k accepted")
	}
	if _, err := locsample.NewSampler(model, locsample.WithInitial([]int{0})); err == nil {
		t.Fatal("short init accepted")
	}
}

// TestChainSeedSplitting: derived seeds are deterministic and pairwise
// distinct over a realistic batch range.
func TestChainSeedSplitting(t *testing.T) {
	seen := map[uint64]int{}
	for i := 0; i < 10000; i++ {
		s := locsample.ChainSeed(42, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("chains %d and %d share a seed", i, j)
		}
		seen[s] = i
	}
	if locsample.ChainSeed(42, 0) != locsample.ChainSeed(42, 0) {
		t.Fatal("ChainSeed not deterministic")
	}
	if locsample.ChainSeed(42, 0) == locsample.ChainSeed(43, 0) {
		t.Fatal("master seed ignored")
	}
}

// TestSampleNFromReseedsWithoutRecompiling: SampleNFrom(seed, k) on one
// compiled sampler equals the same draw on a sampler compiled with that
// seed — the serving path, where one compiled model answers many requests
// with per-request master seeds.
func TestSampleNFromReseedsWithoutRecompiling(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	shared, err := locsample.NewSampler(model, locsample.WithRounds(40), locsample.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []uint64{1, 7, 0, 1 << 60} {
		got, err := shared.SampleNFrom(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		fresh, err := locsample.NewSampler(model, locsample.WithRounds(40), locsample.WithSeed(seed))
		if err != nil {
			t.Fatal(err)
		}
		want, err := fresh.SampleNFrom(seed, 4)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Samples {
			for v := range want.Samples[i] {
				if got.Samples[i][v] != want.Samples[i][v] {
					t.Fatalf("seed %d chain %d diverges at vertex %d", seed, i, v)
				}
			}
		}
	}
}

// deadFabric is a boundary fabric on which every exchange fails at once.
type deadFabric struct{}

func (deadFabric) Send(from, to, round int, states []int) error { return transport.ErrClosed }
func (deadFabric) Recv(from, to, round, want int) ([]int, error) {
	return nil, transport.ErrClosed
}
func (deadFabric) Close() error { return nil }

// TestSampleNFailsFast: when chains error (here: every exchange of a
// sharded chain fails), the batch reports the error and the abort flag
// keeps the pool from draining the whole queue first.
func TestSampleNFailsFast(t *testing.T) {
	// Modest k*n: the batch backing array is allocated up front, so a huge
	// k would reserve real memory before the first chain even fails.
	model := locsample.NewColoring(locsample.GridGraph(32, 32), 13)
	var engines atomic.Int64 // one fabric per engine built
	s, err := locsample.NewSampler(model,
		locsample.WithRounds(1000000),
		locsample.WithShards(2),
		locsample.WithTransport(func([][]int) locsample.Transport {
			engines.Add(1)
			return deadFabric{}
		}),
		locsample.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := s.SampleNFrom(0, 1<<13); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("doomed batch: err = %v, want the fabric's failure", err)
	}
	// Every chain fails at its first exchange and poisons its engine;
	// without the abort flag the pool would still claim (and build a fresh
	// engine for) all 2^13 chains. With it the batch dies within a few
	// claims.
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("doomed batch took %v; abort flag not effective", elapsed)
	}
	if n := engines.Load(); n > 64 {
		t.Fatalf("doomed batch built %d engines; abort flag not effective", n)
	}
}
