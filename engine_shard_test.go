package locsample_test

import (
	"reflect"
	"testing"

	"locsample"
)

// TestWithShardsBitIdentical pins the sharded runtime's keystone contract
// at the public API: a draw on a sharded sampler equals the same draw on an
// unsharded one, chain for chain and byte for byte, under both partition
// strategies.
func TestWithShardsBitIdentical(t *testing.T) {
	g := locsample.GridGraph(11, 13)
	for _, tc := range []struct {
		name string
		m    *locsample.Model
		alg  locsample.Algorithm
	}{
		{"coloring-lm", locsample.NewColoring(g, 13), locsample.LocalMetropolis},
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
		for _, strat := range []locsample.ShardStrategy{locsample.ShardRange, locsample.ShardBFS} {
			for _, k := range []int{2, 4, 7} {
				s, err := locsample.NewSampler(tc.m,
					locsample.WithAlgorithm(tc.alg), locsample.WithSeed(5), locsample.WithRounds(25),
					locsample.WithShards(k), locsample.WithShardStrategy(strat))
				if err != nil {
					t.Fatalf("%s shards=%d: %v", tc.name, k, err)
				}
				if s.Shards() != k {
					t.Fatalf("%s: Shards() = %d, want %d", tc.name, s.Shards(), k)
				}
				got, err := s.SampleNFrom(5, 6)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", tc.name, k, err)
				}
				if !reflect.DeepEqual(got.Samples, want.Samples) {
					t.Fatalf("%s %v shards=%d: sharded batch diverges from centralized", tc.name, strat, k)
				}
				if got.Shard.Shards != k || got.Shard.BoundaryMessages == 0 {
					t.Fatalf("%s shards=%d: missing shard stats %+v", tc.name, k, got.Shard)
				}
			}
		}
	}
}

// TestWithShardsSingleSample: Sampler.Sample and the package-level Sample
// agree under sharding, and report shard stats.
func TestWithShardsSingleSample(t *testing.T) {
	g := locsample.GridGraph(9, 9)
	m := locsample.NewColoring(g, 13)
	opts := []locsample.Option{locsample.WithSeed(3), locsample.WithRounds(30)}
	want, err := locsample.Sample(m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	sharded := append(opts, locsample.WithShards(4))
	got, err := locsample.Sample(m, sharded...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sample, want.Sample) {
		t.Fatal("package-level sharded Sample diverges from centralized")
	}
	if got.Shard == nil || got.Shard.Shards != 4 {
		t.Fatalf("package-level sharded Sample missing shard stats: %+v", got.Shard)
	}
	// A compiled sampler's one-chain draw is chain 0 at ChainSeed(3, 0).
	chain0, err := locsample.Sample(m, locsample.WithSeed(locsample.ChainSeed(3, 0)), locsample.WithRounds(30))
	if err != nil {
		t.Fatal(err)
	}
	s, err := locsample.NewSampler(m, sharded...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res := drawOne(t, s, locsample.DrawRequest{Seed: 3})
	if !reflect.DeepEqual(res.Samples[0], chain0.Sample) {
		t.Fatal("sharded compiled draw diverges from centralized")
	}
	if res.Shard.Shards != 4 {
		t.Fatalf("sharded compiled draw missing shard stats: %+v", res.Shard)
	}
}

// TestWithShardsRejects: sequential algorithms, the distributed runtime,
// and oversized shard counts cannot shard.
func TestWithShardsRejects(t *testing.T) {
	g := locsample.CycleGraph(12)
	m := locsample.NewColoring(g, 5)
	if _, err := locsample.NewSampler(m,
		locsample.WithAlgorithm(locsample.Glauber), locsample.WithShards(2)); err == nil {
		t.Fatal("Glauber + WithShards accepted")
	}
	if _, err := locsample.NewSampler(m, locsample.WithShards(13)); err == nil {
		t.Fatal("more shards than vertices accepted")
	}
	if _, err := locsample.Sample(m, locsample.Distributed(), locsample.WithShards(2)); err == nil {
		t.Fatal("package-level Distributed + WithShards accepted")
	}
}

// TestSampleCSPNMatchesSampleCSP pins the CSP batch engine's determinism
// contract: chain i of a compiled CSP draw equals SampleCSP with seed
// ChainSeed(seed, i).
func TestSampleCSPNMatchesSampleCSP(t *testing.T) {
	g := locsample.GridGraph(7, 9)
	c := locsample.NewWeightedDominatingSet(g, 0.7)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	const rounds, k = 120, 7
	s, err := locsample.NewCSPSampler(g, c, init, locsample.WithRounds(rounds), locsample.WithWorkers(3))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.SampleNFrom(99, k)
	if err != nil {
		t.Fatal(err)
	}
	samples := batch.Samples
	if len(samples) != k {
		t.Fatalf("got %d samples, want %d", len(samples), k)
	}
	for i := 0; i < k; i++ {
		want, _, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(99, i), false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(samples[i], want) {
			t.Fatalf("chain %d diverges from derived-seed SampleCSP", i)
		}
		if !g.IsDominatingSet(samples[i]) {
			t.Fatalf("chain %d output is not dominating", i)
		}
	}
	if _, err := locsample.NewCSPSampler(g, c, init); err == nil {
		t.Fatal("rounds=0 accepted")
	}
	bad := make([]int, g.N()) // all-zero is not dominating
	if _, err := locsample.NewCSPSampler(g, c, bad, locsample.WithRounds(10)); err == nil {
		t.Fatal("infeasible init accepted")
	}
}
