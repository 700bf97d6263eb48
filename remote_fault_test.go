package locsample_test

// Fault-injection coverage for the coordinator's retry path: a worker
// that fails mid-draw must tick locsample_worker_errors_total, and the
// retried draw's trace must contain exactly one set of round spans —
// the first (failed) attempt's partial results may not leak into the
// output buffer or the grafted trace. The workers here are in-process
// fakes speaking the control protocol server-side, which lets the test
// script the failure precisely (real lsharded processes don't fail on
// cue).

import (
	"context"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"locsample"
	"locsample/internal/obs"
	"locsample/internal/partition"
	"locsample/internal/transport"
)

// startFakeWorker listens on an ephemeral loopback port and answers the
// control protocol like an lsharded process would: job → ready OK, then
// one result per run request. stateCount is the number of owned states
// this worker must return (the coordinator validates it against its
// plan); shardIDs are the shards it reports round series for on traced
// runs. When failFirst is armed, the first run request across all
// connections gets result {OK:false} — the injected mid-draw fault.
func startFakeWorker(t *testing.T, stateCount int, shardIDs []int, failFirst *atomic.Bool) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			go serveFakeWorker(c, stateCount, shardIDs, failFirst)
		}
	}()
	return ln.Addr().String()
}

func serveFakeWorker(c net.Conn, stateCount int, shardIDs []int, failFirst *atomic.Bool) {
	defer c.Close()
	const timeout = time.Minute
	magic, err := transport.ReadMagic(c, timeout)
	if err != nil || magic != transport.MagicControl {
		return
	}
	m, err := transport.ReadControl(c, timeout)
	if err != nil || m.Kind != "job" || m.Job == nil {
		return
	}
	if err := transport.WriteControl(c, &transport.ControlMsg{
		Kind: "ready", Ready: &transport.ReadyMsg{OK: true},
	}, timeout); err != nil {
		return
	}
	for {
		m, err := transport.ReadControl(c, timeout)
		if err != nil || m.Kind != "run" || m.Run == nil {
			return
		}
		res := &transport.ResultMsg{}
		if failFirst != nil && failFirst.CompareAndSwap(true, false) {
			res.Error = "injected mid-draw fault"
		} else {
			res.OK = true
			res.States = make([]int, stateCount)
			res.Msgs, res.Vals, res.WaitNS = 1, 2, 3
			res.WireFrames, res.WireBytes = 4, 5
			if m.Run.Trace {
				tm := &transport.TraceMsg{}
				now := time.Now().UnixNano()
				for _, sh := range shardIDs {
					st := transport.ShardTraceMsg{Shard: sh}
					for r := 0; r < m.Run.Rounds; r++ {
						st.ComputeNS = append(st.ComputeNS, 1000)
						st.BarrierNS = append(st.BarrierNS, 100)
						st.Flips = append(st.Flips, 1)
						st.EndNS = append(st.EndNS, now+int64(r+1)*2000)
					}
					tm.Shards = append(tm.Shards, st)
				}
				res.Trace = tm
			}
		}
		if err := transport.WriteControl(c, &transport.ControlMsg{Kind: "result", Result: res}, timeout); err != nil {
			return
		}
	}
}

// TestRemoteWorkerFaultRetryCleanTrace injects a result-stage failure
// on worker 1's first draw attempt and checks the retry's bookkeeping:
// the draw succeeds, locsample_worker_errors_total{stage="result"}
// ticks exactly once, and the grafted trace carries exactly one round
// series per shard — no duplicated spans from the failed attempt.
func TestRemoteWorkerFaultRetryCleanTrace(t *testing.T) {
	const shards, workers, rounds, seed = 2, 2, 12, 9
	g := locsample.GridGraph(5, 5)
	m := locsample.NewColoring(g, 3*g.MaxDeg())

	// Rebuild the coordinator's shard plan so each fake knows how many
	// owned states its results must carry (the coordinator validates the
	// count). Same inputs as the sampler below: default Range strategy,
	// plan seeded by the draw seed.
	plan, err := partition.Build(g, shards, partition.Range, seed)
	if err != nil {
		t.Fatal(err)
	}
	assign := partition.AssignShards(shards, workers)
	counts := make([]int, workers)
	shardIDs := make([][]int, workers)
	for s, sh := range plan.Shards {
		w := assign[s]
		counts[w] += sh.NOwned
		shardIDs[w] = append(shardIDs[w], s)
	}

	var failFirst atomic.Bool
	failFirst.Store(true)
	addrs := make([]string, workers)
	for w := 0; w < workers; w++ {
		var ff *atomic.Bool
		if w == 1 {
			ff = &failFirst
		}
		addrs[w] = startFakeWorker(t, counts[w], shardIDs[w], ff)
	}

	reg := obs.NewRegistry()
	s, err := locsample.NewSampler(m,
		locsample.WithRounds(rounds), locsample.WithSeed(seed),
		locsample.WithShards(shards),
		locsample.WithRemoteWorkers(addrs...),
		locsample.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	res, err := s.Draw(context.Background(), locsample.DrawRequest{Seed: seed, K: 1, Trace: true})
	if err != nil {
		t.Fatalf("draw after one worker fault: %v", err)
	}
	if len(res.Samples[0]) != g.N() {
		t.Fatalf("sample has %d states, want %d", len(res.Samples[0]), g.N())
	}
	tr := res.Trace
	if failFirst.Load() {
		t.Fatal("fault was never injected")
	}

	// The failed attempt must not have grafted anything: exactly one
	// round series per shard, one result span per worker, one draw span.
	var compute, result, draw int
	for _, sp := range tr.Spans() {
		switch sp.Name {
		case "round.compute":
			compute++
		case "worker.result":
			result++
		case "remote.draw":
			draw++
		}
	}
	if compute != shards*rounds {
		t.Fatalf("trace has %d round.compute spans, want %d (partial attempt leaked into the trace?)",
			compute, shards*rounds)
	}
	if result != workers {
		t.Fatalf("trace has %d worker.result spans, want %d", result, workers)
	}
	if draw != 1 {
		t.Fatalf("trace has %d remote.draw spans, want 1", draw)
	}

	if got := reg.Counter("locsample_worker_errors_total", "", "stage", "result").Value(); got != 1 {
		t.Fatalf("worker_errors_total{stage=result} = %d, want 1", got)
	}
	for w, addr := range addrs {
		if up := reg.Gauge("locsample_worker_up", "", "addr", addr).Value(); up != 1 {
			t.Fatalf("worker %d up gauge = %d after successful retry, want 1", w, up)
		}
	}
}
