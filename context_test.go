package locsample_test

// Cancellation contract for Draw: a canceled context must stop a draw on
// every execution path — centralized, in-process sharded, and batch, for
// MRF and CSP alike, plain, traced and diagnosed — returning the context's
// error and never a partial sample. An unconcerned background context
// must change nothing: the draw stays bit-identical to SampleNFrom.

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"locsample"
)

func TestSampleContextCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	g := locsample.GridGraph(6, 6)
	m := locsample.NewColoring(g, 3*g.MaxDeg())

	for _, shards := range []int{0, 3} {
		opts := []locsample.Option{locsample.WithRounds(10), locsample.WithSeed(3)}
		if shards > 0 {
			opts = append(opts, locsample.WithShards(shards))
		}
		s, err := locsample.NewSampler(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		expectCanceled(t, ctx, s, fmt.Sprintf("shards=%d", shards))
		s.Close()
	}

	c := locsample.NewDominatingSet(g)
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	for _, shards := range []int{0, 3} {
		opts := []locsample.Option{locsample.WithRounds(10), locsample.WithSeed(3)}
		if shards > 0 {
			opts = append(opts, locsample.WithShards(shards))
		}
		s, err := locsample.NewCSPSampler(g, c, init, opts...)
		if err != nil {
			t.Fatal(err)
		}
		expectCanceled(t, ctx, s, fmt.Sprintf("csp shards=%d", shards))
		s.Close()
	}
}

// expectCanceled requires every draw flavor on s under the canceled ctx to
// fail with context.Canceled.
func expectCanceled(t *testing.T, ctx context.Context, s drawer, name string) {
	t.Helper()
	for _, req := range []locsample.DrawRequest{
		{Seed: 3, K: 1},
		{Seed: 3, K: 2},
		{Seed: 3, K: 1, Trace: true},
		{Seed: 3, K: 1, Diagnose: true},
	} {
		if _, err := s.Draw(ctx, req); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: Draw(%+v) = %v, want context.Canceled", name, req, err)
		}
	}
}

// A live context must be invisible: context draws match their plain
// counterparts byte for byte, and the sampler remains reusable.
func TestSampleContextBackgroundBitIdentical(t *testing.T) {
	ctx := context.Background()
	g := locsample.GridGraph(7, 5)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(m,
		locsample.WithRounds(12), locsample.WithSeed(11), locsample.WithShards(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	plain, err := s.SampleNFrom(11, 2)
	if err != nil {
		t.Fatal(err)
	}
	withCtx, err := s.Draw(ctx, locsample.DrawRequest{Seed: 11, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withCtx.Samples, plain.Samples) {
		t.Fatal("context batch diverges from plain batch")
	}

	// The sampler still works after a canceled draw: poisoned engines
	// must never be returned to the pool.
	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := s.Draw(canceled, locsample.DrawRequest{Seed: 11, K: 2}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch = %v, want context.Canceled", err)
	}
	again, err := s.SampleNFrom(11, 2)
	if err != nil {
		t.Fatalf("sampler unusable after a canceled draw: %v", err)
	}
	if !reflect.DeepEqual(again.Samples, plain.Samples) {
		t.Fatal("post-cancel batch diverges")
	}
}
