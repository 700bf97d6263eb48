package locsample_test

// The process-level chaos gate: real lsharded workers are SIGKILLed or
// SIGSTOPped in the middle of a draw, and the draw must still complete
// — recovered via standby replacement under the RetryPolicy — with a
// configuration byte-identical to an undisturbed centralized draw of
// the same (model, seed). This is the strongest form of the repo's
// self-healing claim: shard state is a pure function of (spec, plan,
// seed), so nothing a dead worker held is needed to finish its work.
//
// Determinism of the scenario itself: the victim is SIGSTOPped before
// the disrupted draw starts, so the draw is guaranteed to be in flight
// (stalled on the victim's result) when the disruption lands — the
// test never races the draw's completion.

import (
	"context"
	"errors"
	"fmt"
	"os/exec"
	"reflect"
	"syscall"
	"testing"
	"time"

	"locsample"
	"locsample/internal/obs"
)

// chaosPolicy is the retry budget the chaos draws run under: enough
// attempts to survive one worker loss, fast backoff, no jitter (the
// test asserts nothing about timing, but determinism costs nothing).
// resultTimeout is the per-draw result deadline — the kill path
// unblocks reads by itself (connection reset), the stall path relies on
// this deadline firing.
func chaosPolicy(resultTimeout time.Duration) locsample.RetryPolicy {
	return locsample.RetryPolicy{
		Attempts:      3,
		Backoff:       50 * time.Millisecond,
		MaxBackoff:    200 * time.Millisecond,
		Jitter:        -1,
		DialTimeout:   5 * time.Second,
		ResultTimeout: resultTimeout,
	}
}

// newChaosDraw builds the centralized reference sample and a remote
// draw closure for one model kind, wired to the given fleet, standby
// pool, policy, and metrics registry.
func newChaosDraw(t *testing.T, kind string, shards int, addrs, standby []string,
	policy locsample.RetryPolicy, reg *obs.Registry) (want []int, draw func() ([]int, error)) {
	t.Helper()
	const rounds, seed = 18, 91
	remote := []locsample.Option{
		locsample.WithRounds(rounds), locsample.WithSeed(seed),
		locsample.WithShards(shards), locsample.WithRemoteWorkers(addrs...),
		locsample.WithStandbyWorkers(standby...),
		locsample.WithRetryPolicy(policy), locsample.WithMetrics(reg),
	}
	var (
		central, s drawer
		err        error
	)
	switch kind {
	case "mrf":
		g := locsample.GridGraph(8, 6)
		m := locsample.NewColoring(g, 3*g.MaxDeg())
		if central, err = locsample.NewSampler(m, locsample.WithRounds(rounds), locsample.WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
		if s, err = locsample.NewSampler(m, remote...); err != nil {
			t.Fatal(err)
		}
	case "csp":
		g := locsample.GridGraph(6, 5)
		c := locsample.NewDominatingSet(g)
		init := make([]int, c.N)
		for i := range init {
			init[i] = 1
		}
		if central, err = locsample.NewCSPSampler(g, c, init, locsample.WithRounds(rounds), locsample.WithSeed(seed)); err != nil {
			t.Fatal(err)
		}
		if s, err = locsample.NewCSPSampler(g, c, init, remote...); err != nil {
			t.Fatal(err)
		}
	default:
		t.Fatalf("unknown kind %q", kind)
	}
	want = drawOne(t, central, locsample.DrawRequest{Seed: seed}).Samples[0]
	t.Cleanup(func() { s.Close() })
	draw = func() ([]int, error) {
		b, err := s.Draw(context.Background(), locsample.DrawRequest{Seed: seed, K: 1})
		if err != nil {
			return nil, err
		}
		return b.Samples[0], nil
	}
	return want, draw
}

// runChaos drives the shared scenario: establish a healthy session,
// SIGSTOP the victim, start a draw (now guaranteed stalled mid-flight),
// hand the victim to disrupt, and require the draw to recover
// byte-identical via standby replacement — then prove the replaced
// fleet is healthy with one more draw.
func runChaos(t *testing.T, kind string, shards int, policy locsample.RetryPolicy,
	disrupt func(victim *exec.Cmd)) {
	addrs, cmds := startWorkerProcsArgs(t, shards, "-recv-timeout", "10s")
	standby, _ := startWorkerProcsArgs(t, 1, "-recv-timeout", "10s")
	reg := obs.NewRegistry()
	want, draw := newChaosDraw(t, kind, shards, addrs, standby, policy, reg)

	got, err := draw()
	if err != nil {
		t.Fatalf("fault-free draw: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fault-free draw diverges from centralized reference")
	}

	victim := cmds[0]
	if err := victim.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// A stopped process ignores SIGTERM; make sure the spawner's cleanup
	// (registered earlier, so it runs after this) never has to wait it
	// out.
	t.Cleanup(func() { victim.Process.Kill() })

	type result struct {
		x   []int
		err error
	}
	done := make(chan result, 1)
	go func() {
		x, err := draw()
		done <- result{x, err}
	}()
	// Give the draw time to fan out and block on the victim's result.
	time.Sleep(250 * time.Millisecond)
	disrupt(victim)

	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("disrupted draw did not recover: %v", r.err)
		}
		if !reflect.DeepEqual(r.x, want) {
			t.Fatal("recovered draw diverges from centralized reference")
		}
	case <-time.After(90 * time.Second):
		t.Fatal("disrupted draw neither recovered nor failed")
	}
	if n := reg.Counter("locsample_worker_replacements_total", "").Value(); n < 1 {
		t.Fatalf("expected at least one standby replacement, counter = %d", n)
	}

	got, err = draw()
	if err != nil {
		t.Fatalf("post-recovery draw on replaced fleet: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("post-recovery draw diverges from centralized reference")
	}
}

// TestChaosWorkerKilledMidDraw SIGKILLs a worker process while a draw
// is stalled on it: the connection reset unblocks the coordinator, the
// standby replaces the dead worker, and the redraw is byte-identical.
func TestChaosWorkerKilledMidDraw(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	for _, kind := range []string{"mrf", "csp"} {
		for _, shards := range []int{2, 3} {
			t.Run(fmt.Sprintf("%s/shards=%d", kind, shards), func(t *testing.T) {
				runChaos(t, kind, shards, chaosPolicy(60*time.Second),
					func(victim *exec.Cmd) { victim.Process.Kill() })
			})
		}
	}
}

// TestChaosWorkerStalledMidDraw leaves the victim SIGSTOPped: no
// connection ever errors, so recovery depends entirely on the policy's
// result deadline firing, after which replacement and redraw proceed as
// in the kill path.
func TestChaosWorkerStalledMidDraw(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and stalls worker processes")
	}
	for _, kind := range []string{"mrf", "csp"} {
		t.Run(kind, func(t *testing.T) {
			runChaos(t, kind, 2, chaosPolicy(3*time.Second),
				func(victim *exec.Cmd) { /* stay stopped; the deadline recovers */ })
		})
	}
}

// TestChaosNoStandbyTypedError pins the failure contract when there is
// nothing to heal with: a killed worker and an empty standby pool spend
// the retry budget and surface a typed *WorkerError naming the dead
// worker — never a partial sample.
func TestChaosNoStandbyTypedError(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns and kills worker processes")
	}
	addrs, cmds := startWorkerProcsArgs(t, 2, "-recv-timeout", "10s")
	reg := obs.NewRegistry()
	want, draw := newChaosDraw(t, "mrf", 2, addrs, nil, chaosPolicy(60*time.Second), reg)

	got, err := draw()
	if err != nil {
		t.Fatalf("fault-free draw: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("fault-free draw diverges from centralized reference")
	}

	cmds[0].Process.Kill()
	// Redial of the dead address fails fast (connection refused), so the
	// budget is spent on dial errors, not deadlines.
	_, err = draw()
	if err == nil {
		t.Fatal("draw succeeded with a dead worker and no standby")
	}
	var we *locsample.WorkerError
	if !errors.As(err, &we) {
		t.Fatalf("want *WorkerError, got %T: %v", err, err)
	}
	if we.Worker != 0 {
		t.Fatalf("want failure attributed to worker 0, got %d (%s)", we.Worker, we.Addr)
	}
}
