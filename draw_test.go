package locsample_test

import (
	"context"
	"reflect"
	"testing"

	"locsample"
)

// countingProbe counts coupled rounds.
type countingProbe struct{ rounds int }

func (p *countingProbe) CouplingRound(round, disagree, flips int, flipEWMA float64) { p.rounds++ }

// drawer is the Draw surface Sampler and CSPSampler share.
type drawer interface {
	Draw(context.Context, locsample.DrawRequest) (*locsample.Batch, error)
	Close() error
}

// drawOne runs the one-chain draw req on s and fails the test on error.
func drawOne(t testing.TB, s drawer, req locsample.DrawRequest) *locsample.Batch {
	t.Helper()
	req.K = 1
	b, err := s.Draw(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDrawFlavorsMatchChainZero pins Draw's contract on both families and
// every in-chain runtime: a traced or diagnosed K=1 draw is chain 0 of the
// plain draw at the same seed, and carries its trace or diagnosis.
func TestDrawFlavorsMatchChainZero(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	m := locsample.NewColoring(locsample.GridGraph(6, 6), 16)
	for _, rt := range []struct {
		name string
		opts []locsample.Option
	}{
		{"centralized", nil},
		{"shards3", []locsample.Option{locsample.WithShards(3)}},
		{"parallel2", []locsample.Option{locsample.WithParallelRounds(2)}},
	} {
		mrf, err := locsample.NewSampler(m, append(rt.opts, locsample.WithRounds(40))...)
		if err != nil {
			t.Fatal(err)
		}
		csp, err := locsample.NewCSPSampler(g, c, init, append(rt.opts, locsample.WithRounds(30))...)
		if err != nil {
			t.Fatal(err)
		}
		for family, s := range map[string]drawer{"mrf": mrf, "csp": csp} {
			t.Run(family+"/"+rt.name, func(t *testing.T) {
				defer s.Close()
				ctx := context.Background()
				plain, err := s.Draw(ctx, locsample.DrawRequest{Seed: 9, K: 3})
				if err != nil {
					t.Fatal(err)
				}
				traced, err := s.Draw(ctx, locsample.DrawRequest{Seed: 9, K: 1, Trace: true})
				if err != nil {
					t.Fatal(err)
				}
				if traced.Trace == nil || traced.Diagnosis != nil {
					t.Fatalf("traced draw: trace %v, diagnosis %v", traced.Trace, traced.Diagnosis)
				}
				probe := &countingProbe{}
				diagnosed, err := s.Draw(ctx, locsample.DrawRequest{Seed: 9, K: 1, Diagnose: true, Probe: probe})
				if err != nil {
					t.Fatal(err)
				}
				if diagnosed.Diagnosis == nil || diagnosed.Trace != nil || probe.rounds != plain.Rounds {
					t.Fatalf("diagnosed draw: diagnosis %v, trace %v, %d probed rounds of %d",
						diagnosed.Diagnosis, diagnosed.Trace, probe.rounds, plain.Rounds)
				}
				for flavor, b := range map[string]*locsample.Batch{"traced": traced, "diagnosed": diagnosed} {
					if b.Rounds != plain.Rounds || !reflect.DeepEqual(b.Samples[0], plain.Samples[0]) {
						t.Fatalf("%s draw is not chain 0 of the plain draw", flavor)
					}
				}
			})
		}
	}
}

// TestDrawRequestRejects: Draw refuses the request shapes it cannot serve.
func TestDrawRequestRejects(t *testing.T) {
	s, err := locsample.NewSampler(locsample.NewColoring(locsample.CycleGraph(8), 5), locsample.WithRounds(10))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, req := range []locsample.DrawRequest{
		{K: -1},
		{K: 2, Trace: true},
		{K: 0, Diagnose: true},
		{K: 1, Trace: true, Diagnose: true},
		{K: 1, Probe: &countingProbe{}},
	} {
		if _, err := s.Draw(context.Background(), req); err == nil {
			t.Errorf("Draw(%+v) accepted", req)
		}
	}
}
