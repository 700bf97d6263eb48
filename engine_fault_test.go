package locsample_test

// Error-path contract of sharded draws at the public API: when the
// boundary fabric fails mid-draw, a batch draw must abort fast with a typed
// transport error — never hang, never return a silently wrong batch —
// and the sampler must stay usable for diagnosis (further draws return
// errors, not panics).

import (
	"context"
	"errors"
	"testing"
	"time"

	"locsample"
	"locsample/internal/transport"
)

// faultyFabric builds each engine's boundary fabric with a drop injected
// at the given frame and a short receive deadline, so the loss surfaces
// as a typed error within seconds.
func faultyFabric(frame int) func(neighbors [][]int) locsample.Transport {
	return func(neighbors [][]int) locsample.Transport {
		return transport.NewFault(
			transport.NewChan(neighbors, 2*time.Second),
			map[int]transport.Injection{frame: {Op: transport.FaultDrop}},
		)
	}
}

// transportFailure reports whether err is one of the loud shapes a lost
// frame may take: a receive deadline, a poisoned (closed) fabric on a
// sibling shard, or a round mismatch when the receiver instead sees the
// sender's next-round frame. What a loss must never produce is a clean
// draw with a wrong configuration.
func transportFailure(err error) bool {
	var re *transport.RoundError
	return errors.Is(err, transport.ErrTimeout) ||
		errors.Is(err, transport.ErrClosed) ||
		errors.As(err, &re)
}

func TestShardedSampleNFailsFast(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(m,
		locsample.WithRounds(12), locsample.WithSeed(3),
		locsample.WithShards(3), locsample.WithTransport(faultyFabric(2)))
	if err != nil {
		t.Fatal(err)
	}

	type res struct {
		batch *locsample.Batch
		err   error
	}
	done := make(chan res, 1)
	go func() {
		b, err := s.SampleNFrom(3, 4)
		done <- res{b, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatal("every chain's fabric drops a frame, yet the draw succeeded")
		}
		if !transportFailure(r.err) {
			t.Fatalf("error %v is not a typed transport failure", r.err)
		}
		if r.batch != nil {
			t.Fatal("failed draw returned a batch alongside its error")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded draw hung instead of aborting")
	}

	// The abort must not poison later calls into panics: a fresh draw
	// builds a fresh engine (and here a fresh injector, so it fails the
	// same loud way).
	if _, err := s.Draw(context.Background(), locsample.DrawRequest{Seed: 3, K: 1}); err == nil || !transportFailure(err) {
		t.Fatalf("follow-up draw: got %v, want a typed transport failure", err)
	}
}

// TestShardedCSPSampleNFailsFast is the CSP twin of the contract.
func TestShardedCSPSampleNFailsFast(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	c := locsample.NewDominatingSet(g)
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	s, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(10), locsample.WithSeed(3),
		locsample.WithShards(3), locsample.WithTransport(faultyFabric(2)))
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan error, 1)
	go func() {
		_, err := s.SampleNFrom(3, 3)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("every chain's fabric drops a frame, yet the draw succeeded")
		}
		if !transportFailure(err) {
			t.Fatalf("error %v is not a typed transport failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("sharded CSP draw hung instead of aborting")
	}
}

// TestOneShotHonorsTransport: the one-shot draws compile the sampler
// NewSampler / NewCSPSampler would and draw once, so every runtime option
// reaches the draw. An injected fabric fault must surface from Sample and
// SampleCSP alike, and a CSP draw placed on an unreachable worker must
// fail rather than quietly draw in-process.
func TestOneShotHonorsTransport(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	fault := []locsample.Option{locsample.WithShards(3), locsample.WithTransport(faultyFabric(2))}
	if _, _, err := locsample.SampleCSP(g, c, init, 10, 1, false, fault...); !transportFailure(err) {
		t.Fatalf("SampleCSP over a dropping fabric: err = %v, want a typed transport failure", err)
	}
	m := locsample.NewColoring(locsample.GridGraph(8, 8), 13)
	if _, err := locsample.Sample(m, append(fault, locsample.WithRounds(12), locsample.WithSeed(3))...); !transportFailure(err) {
		t.Fatalf("Sample over a dropping fabric: err = %v, want a typed transport failure", err)
	}
	_, _, err := locsample.SampleCSP(g, c, init, 10, 1, false,
		locsample.WithShards(2), locsample.WithRemoteWorkers("127.0.0.1:1"),
		locsample.WithRetryPolicy(locsample.RetryPolicy{Attempts: 1, DialTimeout: time.Second}))
	var we *locsample.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("SampleCSP on an unreachable worker: err = %v, want a WorkerError", err)
	}
}
