package service

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"locsample"
	"locsample/internal/transport"
)

// startWorkers spins up n in-process lsharded workers on loopback.
func startWorkers(t *testing.T, n int, cfg WorkerConfig) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		w, err := NewWorker("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		addrs[i] = w.Addr()
	}
	return addrs
}

// Remote MRF draws must be byte-identical to centralized draws of the
// same model and seed, across worker counts and batch chains.
func TestRemoteMRFBitIdentical(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	const rounds, seed, k = 10, 414, 3

	central, err := locsample.NewSampler(m,
		locsample.WithRounds(rounds), locsample.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := central.SampleNFrom(seed, k)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 3} {
		addrs := startWorkers(t, workers, WorkerConfig{})
		s, err := locsample.NewSampler(m,
			locsample.WithRounds(rounds), locsample.WithSeed(seed),
			locsample.WithShards(4), locsample.WithRemoteWorkers(addrs...))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got, err := s.SampleNFrom(seed, k)
		if err != nil {
			s.Close()
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range want.Samples {
			for v := range want.Samples[i] {
				if got.Samples[i][v] != want.Samples[i][v] {
					t.Fatalf("workers=%d chain %d: diverges at vertex %d", workers, i, v)
				}
			}
		}
		if workers > 1 && got.Shard.WireFrames == 0 {
			t.Fatalf("workers=%d: no frames crossed the wire", workers)
		}
		s.Close()
	}
}

// Remote CSP draws share the bit-identity contract.
func TestRemoteCSPBitIdentical(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	c := locsample.NewDominatingSet(g)
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	const rounds, seed = 12, 99

	central, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(rounds), locsample.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := central.SampleNFrom(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := ref.Samples[0]

	addrs := startWorkers(t, 2, WorkerConfig{})
	s, err := locsample.NewCSPSampler(g, c, init,
		locsample.WithRounds(rounds), locsample.WithSeed(seed),
		locsample.WithShards(3), locsample.WithRemoteWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	b, err := s.SampleNFrom(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	for v, x := range b.Samples[0] {
		if x != want[v] {
			t.Fatalf("remote CSP draw diverges at vertex %d", v)
		}
	}
	if b.Shard.WireFrames == 0 {
		t.Fatal("no frames crossed the wire")
	}
}

// faultOnce wraps the first job's transport in a drop injector and
// passes later jobs through untouched.
type faultOnce struct {
	used atomic.Bool
}

func (f *faultOnce) wrap(tr transport.Transport) transport.Transport {
	if f.used.CompareAndSwap(false, true) {
		return transport.NewFault(tr, map[int]transport.Injection{
			3: {Op: transport.FaultDrop},
		})
	}
	return tr
}

// When a worker's fabric eats a frame mid-draw, the coordinator must
// retry with a fresh session and still return the correct (bit-exact)
// configuration — the draw is a pure function of the seed.
func TestRemoteCoordinatorRetriesAfterFault(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	const rounds, seed = 8, 7

	central, err := locsample.NewSampler(m,
		locsample.WithRounds(rounds), locsample.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	want, err := central.SampleNFrom(seed, 1)
	if err != nil {
		t.Fatal(err)
	}

	var f faultOnce
	addrs := startWorkers(t, 2, WorkerConfig{
		RecvTimeout:   2 * time.Second,
		WrapTransport: f.wrap,
	})
	s, err := locsample.NewSampler(m,
		locsample.WithRounds(rounds), locsample.WithSeed(seed),
		locsample.WithShards(2), locsample.WithRemoteWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	res, err := s.SampleNFrom(seed, 1)
	if err != nil {
		t.Fatalf("coordinator did not recover from a single faulted session: %v", err)
	}
	if !f.used.Load() {
		t.Fatal("fault injector never armed")
	}
	for v, x := range want.Samples[0] {
		if res.Samples[0][v] != x {
			t.Fatalf("post-retry draw diverges at vertex %d", v)
		}
	}
}

// faultAll drops a frame in every session: the coordinator's single
// retry must then abort with a typed WorkerError, never hang.
func TestRemoteCoordinatorAbortsCleanly(t *testing.T) {
	g := locsample.GridGraph(6, 6)
	m := locsample.NewColoring(g, 3*g.MaxDeg())

	addrs := startWorkers(t, 2, WorkerConfig{
		RecvTimeout: 1 * time.Second,
		WrapTransport: func(tr transport.Transport) transport.Transport {
			return transport.NewFault(tr, map[int]transport.Injection{
				2: {Op: transport.FaultDrop},
			})
		},
	})
	s, err := locsample.NewSampler(m,
		locsample.WithRounds(8), locsample.WithSeed(7),
		locsample.WithShards(2), locsample.WithRemoteWorkers(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan error, 1)
	go func() {
		_, err := s.SampleNFrom(7, 1)
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("every session faulted, yet the draw succeeded")
		}
		var we *locsample.WorkerError
		if !errors.As(err, &we) {
			t.Fatalf("error %v is not a WorkerError", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("coordinator hung instead of aborting")
	}
}

// A server configured with -workers serves sharded draws through the
// fleet, still bit-identical to a centralized server.
func TestRegistryRemoteWorkers(t *testing.T) {
	specJSON := []byte(`{
		"version": "locsample/v1",
		"graph": {"family": "grid", "rows": 8, "cols": 8},
		"model": {"kind": "coloring", "q": 12}
	}`)
	central := NewRegistry(Config{})
	mc, _, err := central.Register(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	want, err := central.Draw(mc, DrawOptions{K: 2, Seed: 5, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}

	addrs := startWorkers(t, 2, WorkerConfig{})
	remote := NewRegistry(Config{WorkerAddrs: addrs, DefaultShards: 3})
	mr, _, err := remote.Register(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Draw(mr, DrawOptions{K: 2, Seed: 5, Rounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	if got.Shards != 3 {
		t.Fatalf("served draw ran %d shards, want 3", got.Shards)
	}
	for i := range want.Samples {
		for v := range want.Samples[i] {
			if got.Samples[i][v] != want.Samples[i][v] {
				t.Fatalf("served remote chain %d diverges at vertex %d", i, v)
			}
		}
	}
	if got.Shard.WireFrames == 0 {
		t.Fatal("served draw crossed no process boundary")
	}
}
