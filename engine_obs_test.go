package locsample

import (
	"bytes"
	"strings"
	"testing"
)

// TestSampleTracedBitIdentical pins the tracing invariant at the API
// level: a traced draw returns the same configuration as an untraced
// one, centralized and sharded, and the trace actually carries round
// spans.
func TestSampleTracedBitIdentical(t *testing.T) {
	g := GridGraph(12, 12)
	m := NewColoring(g, 3*g.MaxDeg()+1)
	for _, shards := range []int{1, 3} {
		opts := []Option{WithSeed(7), WithRounds(20)}
		if shards > 1 {
			opts = append(opts, WithShards(shards))
		}
		s, err := NewSampler(m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		bare := drawOne(t, s, DrawRequest{Seed: 7}).Samples[0]
		res := drawOne(t, s, DrawRequest{Seed: 7, Trace: true})
		tr := res.Trace
		for v := range bare {
			if bare[v] != res.Samples[0][v] {
				t.Fatalf("shards=%d: traced draw diverged at vertex %d", shards, v)
			}
		}
		if tr.ID == "" || len(tr.ID) != 16 {
			t.Fatalf("shards=%d: bad trace ID %q", shards, tr.ID)
		}
		spans := tr.Spans()
		var compute, draw int
		lanes := map[int]bool{}
		for _, sp := range spans {
			switch sp.Name {
			case "round.compute":
				compute++
				lanes[sp.TID] = true
			case "draw":
				draw++
			}
		}
		if compute < shards*s.Rounds() {
			t.Fatalf("shards=%d: %d compute spans, want >= %d", shards, compute, shards*s.Rounds())
		}
		if len(lanes) != shards {
			t.Fatalf("shards=%d: spans on %d lanes", shards, len(lanes))
		}
		if draw != 1 {
			t.Fatalf("shards=%d: %d draw spans, want 1", shards, draw)
		}
		var buf bytes.Buffer
		if err := tr.WriteChrome(&buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), `"traceEvents"`) {
			t.Fatal("Chrome export missing traceEvents")
		}
	}
}

// TestCSPSampleTraced is the CSP counterpart: traced draws match
// untraced ones and record one round span per round.
func TestCSPSampleTraced(t *testing.T) {
	g := GridGraph(8, 8)
	c := NewDominatingSet(g)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	s, err := NewCSPSampler(g, c, init, WithRounds(15), WithSeed(3))
	if err != nil {
		t.Fatal(err)
	}
	bare := drawOne(t, s, DrawRequest{Seed: 3}).Samples[0]
	res := drawOne(t, s, DrawRequest{Seed: 3, Trace: true})
	traced, tr := res.Samples[0], res.Trace
	for v := range bare {
		if bare[v] != traced[v] {
			t.Fatalf("traced CSP draw diverged at vertex %d", v)
		}
	}
	var compute int
	for _, sp := range tr.Spans() {
		if sp.Name == "round.compute" {
			compute++
		}
	}
	if compute != s.Rounds() {
		t.Fatalf("%d compute spans, want %d", compute, s.Rounds())
	}
}

// TestWithMetricsPublishesDrawSeries checks that WithMetrics wires the
// sampler-level series — draws, latency, rounds — and that metered
// draws stay bit-identical to bare ones.
func TestWithMetricsPublishesDrawSeries(t *testing.T) {
	g := GridGraph(10, 10)
	m := NewColoring(g, 3*g.MaxDeg()+1)
	bareS, err := NewSampler(m, WithSeed(11), WithRounds(12))
	if err != nil {
		t.Fatal(err)
	}
	bare := drawOne(t, bareS, DrawRequest{Seed: 11}).Samples[0]

	reg := NewMetrics()
	s, err := NewSampler(m, WithSeed(11), WithRounds(12), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	res := drawOne(t, s, DrawRequest{Seed: 11}).Samples[0]
	for v := range bare {
		if bare[v] != res[v] {
			t.Fatalf("metered draw diverged at vertex %d", v)
		}
	}
	if _, err := s.SampleNFrom(11, 4); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`locsample_draws_total{engine="mrf"} 5`,
		`locsample_rounds_total{engine="mrf"} 60`,
		`locsample_draw_seconds_count{engine="mrf"} 5`,
		"# TYPE locsample_round_compute_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestWithMetricsCSP checks the CSP sampler publishes under the csp
// engine label, including the centralized observed round path.
func TestWithMetricsCSP(t *testing.T) {
	g := GridGraph(6, 6)
	c := NewDominatingSet(g)
	init := make([]int, g.N())
	for i := range init {
		init[i] = 1
	}
	reg := NewMetrics()
	s, err := NewCSPSampler(g, c, init, WithRounds(9), WithSeed(5), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	drawOne(t, s, DrawRequest{Seed: 5})
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	body := buf.String()
	for _, want := range []string{
		`locsample_draws_total{engine="csp"} 1`,
		`locsample_rounds_total{engine="csp"} 9`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}
