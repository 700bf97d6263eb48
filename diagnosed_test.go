package locsample

import (
	"context"
	"testing"
)

// The diagnosed-draw pins: a diagnosed draw is the plain draw plus a
// mixing report, never a different draw. Chain 0 of the coupling IS the
// chain that produces the sample, so at the same seed the two must be
// bit-identical — centralized, sharded, MRF and CSP alike.

// drawOne runs the one-chain draw req on s and fails the test on error.
func drawOne(t *testing.T, s interface {
	Draw(context.Context, DrawRequest) (*Batch, error)
}, req DrawRequest) *Batch {
	t.Helper()
	req.K = 1
	b, err := s.Draw(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSampleDiagnosedBitIdentical(t *testing.T) {
	m := NewColoring(GridGraph(6, 6), 16)
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"centralized", []Option{WithSeed(42), WithRounds(80)}},
		{"sharded", []Option{WithSeed(42), WithRounds(80), WithShards(3)}},
		{"coupling-2", []Option{WithSeed(42), WithRounds(80), WithCoupling(2)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewSampler(m, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			plain := drawOne(t, s, DrawRequest{Seed: 42}).Samples[0]
			res := drawOne(t, s, DrawRequest{Seed: 42, Diagnose: true})
			diag := res.Diagnosis
			if diag == nil || diag.Chains < 2 || diag.Rounds != s.Rounds() {
				t.Fatalf("bad diagnosis: %+v", diag)
			}
			for v := range plain {
				if plain[v] != res.Samples[0][v] {
					t.Fatalf("diagnosed draw diverged from plain draw at vertex %d", v)
				}
			}
		})
	}
}

func TestRoundsAutoMeasuredBudget(t *testing.T) {
	// q=16 at Δ=4 is inside the LocalMetropolis proved regime, so the
	// coupling must coalesce well under the worst-case cap.
	m := NewColoring(GridGraph(8, 8), 16)
	auto, err := NewSampler(m, WithSeed(42), WithRoundsAuto())
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if auto.CapRounds() <= 0 {
		t.Fatalf("CapRounds = %d, want the worst-case cap", auto.CapRounds())
	}
	if auto.Rounds() <= 0 || auto.Rounds() > auto.CapRounds() {
		t.Fatalf("measured budget %d outside (0, cap %d]", auto.Rounds(), auto.CapRounds())
	}
	if auto.Rounds() == auto.CapRounds() {
		t.Fatalf("measured budget %d did not beat the cap — no coalescence in the proved regime", auto.Rounds())
	}
	// The pin: a draw under the measured budget is exactly a fixed-budget
	// draw with WithRounds(measured).
	fixed, err := NewSampler(m, WithSeed(42), WithRounds(auto.Rounds()))
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	a := drawOne(t, auto, DrawRequest{Seed: 42})
	f := drawOne(t, fixed, DrawRequest{Seed: 42})
	if a.Rounds != auto.Rounds() {
		t.Fatalf("draw ran %d rounds, sampler resolved %d", a.Rounds, auto.Rounds())
	}
	for v := range a.Samples[0] {
		if a.Samples[0][v] != f.Samples[0][v] {
			t.Fatalf("auto draw diverged from fixed-budget draw at vertex %d", v)
		}
	}
}

func TestRoundsAutoOneShotSample(t *testing.T) {
	m := NewColoring(GridGraph(6, 6), 16)
	res, err := Sample(m, WithSeed(7), WithRoundsAuto())
	if err != nil {
		t.Fatal(err)
	}
	want, err := Sample(m, WithSeed(7), WithRounds(res.Rounds))
	if err != nil {
		t.Fatal(err)
	}
	for v := range res.Sample {
		if res.Sample[v] != want.Sample[v] {
			t.Fatalf("one-shot auto draw diverged at vertex %d", v)
		}
	}
}

func TestCSPSampleDiagnosedBitIdentical(t *testing.T) {
	g := GridGraph(5, 5)
	c := NewDominatingSet(g)
	init := make([]int, c.N)
	for v := range init {
		init[v] = 1
	}
	s, err := NewCSPSampler(g, c, init, WithSeed(13), WithRounds(100))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	plain := drawOne(t, s, DrawRequest{Seed: 13}).Samples[0]
	res := drawOne(t, s, DrawRequest{Seed: 13, Diagnose: true})
	out, diag := res.Samples[0], res.Diagnosis
	if diag == nil || diag.Rounds != s.Rounds() {
		t.Fatalf("bad diagnosis: %+v", diag)
	}
	for v := range plain {
		if plain[v] != out[v] {
			t.Fatalf("diagnosed CSP draw diverged at vertex %d", v)
		}
	}
}

func TestCSPRoundsAutoMeasuredBudget(t *testing.T) {
	g := GridGraph(5, 5)
	c := NewDominatingSet(g)
	init := make([]int, c.N)
	for v := range init {
		init[v] = 1
	}
	const cap = 2000
	auto, err := NewCSPSampler(g, c, init, WithSeed(13), WithRounds(cap), WithRoundsAuto())
	if err != nil {
		t.Fatal(err)
	}
	defer auto.Close()
	if auto.CapRounds() != cap {
		t.Fatalf("CapRounds = %d, want %d", auto.CapRounds(), cap)
	}
	if auto.Rounds() <= 0 || auto.Rounds() > cap {
		t.Fatalf("measured budget %d outside (0, %d]", auto.Rounds(), cap)
	}
	fixed, err := NewCSPSampler(g, c, init, WithSeed(13), WithRounds(auto.Rounds()))
	if err != nil {
		t.Fatal(err)
	}
	defer fixed.Close()
	a := drawOne(t, auto, DrawRequest{Seed: 13}).Samples[0]
	f := drawOne(t, fixed, DrawRequest{Seed: 13}).Samples[0]
	for v := range a {
		if a[v] != f[v] {
			t.Fatalf("auto CSP draw diverged from fixed-budget draw at vertex %d", v)
		}
	}
}
