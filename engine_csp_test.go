package locsample_test

import (
	"reflect"
	"testing"

	"locsample"
)

func cspTestWorkload(t *testing.T) (*locsample.Graph, *locsample.CSPModel, []int) {
	t.Helper()
	g := locsample.GridGraph(6, 6)
	c := locsample.NewDominatingSet(g)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	return g, c, init
}

// TestWithShardsCSPBitIdentical: a CSP draw with WithShards(k) equals the
// centralized draw byte-for-byte at every tested shard count and strategy —
// the engine-level face of the cluster keystone invariant.
func TestWithShardsCSPBitIdentical(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	const rounds, seed = 25, 1234
	want, _, err := locsample.SampleCSP(g, c, init, rounds, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, strat := range []locsample.ShardStrategy{locsample.ShardRange, locsample.ShardBFS} {
		for _, k := range []int{2, 3, 5, 8} {
			got, _, err := locsample.SampleCSP(g, c, init, rounds, seed, false,
				locsample.WithShards(k), locsample.WithShardStrategy(strat))
			if err != nil {
				t.Fatalf("shards=%d strategy=%v: %v", k, strat, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("shards=%d strategy=%v: sharded CSP draw diverges from centralized", k, strat)
			}
		}
	}
	// The compiled sampler path reports shard stats; its draw is chain 0
	// at ChainSeed(seed, 0).
	chain0, _, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(seed, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	s, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(rounds), locsample.WithSeed(seed), locsample.WithShards(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.Shards() != 4 {
		t.Fatalf("sampler reports %d shards, want 4", s.Shards())
	}
	b := drawOne(t, s, locsample.DrawRequest{Seed: seed})
	if !reflect.DeepEqual(b.Samples[0], chain0) {
		t.Fatal("compiled sharded CSP sampler diverges from centralized draw")
	}
	if st := b.Shard; st.Shards != 4 || st.BoundaryMessages == 0 {
		t.Fatalf("missing shard stats: %+v", st)
	}
}

// TestWithParallelRoundsCSPBitIdentical: vertex-parallel CSP rounds equal
// sequential rounds at every tested worker count.
func TestWithParallelRoundsCSPBitIdentical(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	const rounds, seed = 25, 777
	want, _, err := locsample.SampleCSP(g, c, init, rounds, seed, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, par := range []int{2, 3, 7} {
		got, _, err := locsample.SampleCSP(g, c, init, rounds, seed, false,
			locsample.WithParallelRounds(par))
		if err != nil {
			t.Fatalf("parallel=%d: %v", par, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("parallel=%d: vertex-parallel CSP draw diverges from sequential", par)
		}
	}
	s, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(rounds), locsample.WithSeed(seed), locsample.WithParallelRounds(3))
	if err != nil {
		t.Fatal(err)
	}
	if s.ParallelRounds() != 3 {
		t.Fatalf("sampler reports %d parallel workers, want 3", s.ParallelRounds())
	}
	chain0, _, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(seed, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if out := drawOne(t, s, locsample.DrawRequest{Seed: seed}).Samples[0]; !reflect.DeepEqual(out, chain0) {
		t.Fatal("compiled parallel CSP sampler diverges from sequential draw")
	}
}

// TestCSPSamplerBatchDeterminism: chain i of a CSP batch equals a single
// draw at the derived chain seed, across runtimes and worker counts.
func TestCSPSamplerBatchDeterminism(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	const rounds, seed, k = 15, 9, 6
	want := make([][]int, k)
	for i := range want {
		out, _, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(seed, i), false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for name, opts := range map[string][]locsample.Option{
		"centralized": nil,
		"workers1":    {locsample.WithWorkers(1)},
		"sharded":     {locsample.WithShards(3)},
		"parallel":    {locsample.WithParallelRounds(2)},
	} {
		all := append([]locsample.Option{locsample.WithRounds(rounds), locsample.WithSeed(seed)}, opts...)
		s, err := locsample.NewCSPSampler(g, c, init, all...)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		batch, err := s.SampleNFrom(seed, k)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(batch.Samples, want) {
			t.Fatalf("%s: batch chains diverge from derived-seed singles", name)
		}
	}
}

// TestCSPSamplerOptionErrors: conflicting or invalid runtime options are
// rejected with clear errors.
func TestCSPSamplerOptionErrors(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	if _, err := locsample.NewCSPSampler(g, c, init); err == nil {
		t.Fatal("missing rounds accepted")
	}
	if _, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(5), locsample.WithShards(2), locsample.WithParallelRounds(2)); err == nil {
		t.Fatal("shards+parallel accepted")
	}
	if _, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(5), locsample.Distributed()); err == nil {
		t.Fatal("distributed batch sampler accepted")
	}
	if _, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(5), locsample.WithAlgorithm(locsample.LocalMetropolis)); err == nil {
		t.Fatal("non-LubyGlauber algorithm accepted")
	}
	if _, _, err := locsample.SampleCSP(g, c, init, 5, 1, true, locsample.WithShards(2)); err == nil {
		t.Fatal("distributed sharded CSP draw accepted")
	}
	if _, _, err := locsample.SampleCSP(g, c, init, 5, 1, true, locsample.WithParallelRounds(2)); err == nil {
		t.Fatal("distributed parallel CSP draw accepted")
	}
	bad := make([]int, len(init)) // all zeros: not dominating
	if _, err := locsample.NewCSPSampler(g, c, bad, locsample.WithRounds(5)); err == nil {
		t.Fatal("infeasible init accepted")
	}
}
