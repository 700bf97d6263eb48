package locsample

// The coordinator half of cross-process sharded draws. WithRemoteWorkers
// places a sampler's shard plan on lsharded worker processes: the
// coordinator ships each worker the model's wire spec plus the plan
// parameters (shard count, strategy, plan seed) over a control
// connection, the workers rebuild the model and plan deterministically,
// mesh up over TCP, and then run lockstep rounds on request. Because a
// sharded draw is bit-identical to the centralized chain at the same
// seed — shard boundaries only move PRF-keyed state around, never change
// it — the reassembled configuration is byte-for-byte the one a local
// draw would produce.
//
// The same purity is what makes the coordinator self-healing: nothing a
// worker holds is needed to recover from its death. A failed draw tears
// the session down, optionally swaps a standby worker into the dead
// worker's slot (WithStandbyWorkers), re-ships the job, and redraws
// under the RetryPolicy's attempt/backoff budget; the recovered draw is
// byte-identical to an undisturbed one.

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"time"

	"locsample/internal/core"
	"locsample/internal/obs"
	"locsample/internal/partition"
	"locsample/internal/transport"
)

// WorkerError reports which remote worker a cross-process draw failed
// on. Coordinator calls return it after the retry budget is spent; the
// draw never returns a partially-assembled configuration.
type WorkerError struct {
	// Worker is the process index in the WithRemoteWorkers list.
	Worker int
	// Addr is the worker's address.
	Addr string
	// Err is the underlying failure.
	Err error
}

func (e *WorkerError) Error() string {
	return fmt.Sprintf("locsample: worker %d (%s): %v", e.Worker, e.Addr, e.Err)
}

func (e *WorkerError) Unwrap() error { return e.Err }

// remoteJob is everything a worker set needs to host one sampler's
// shards; it is resent verbatim on reconnect (with the current address
// list — replacement edits addrs between attempts).
type remoteJob struct {
	kind      string // "mrf" | "csp"
	spec      *Spec
	algorithm string
	dropRule3 bool
	shards    int
	strategy  string
	planSeed  uint64
	init      []int
	addrs     []string
}

// remoteEngine drives draws over the workers' control connections. One
// draw at a time: the mutex serializes callers, and within a draw the
// run request fans out to every worker before any result is awaited.
type remoteEngine struct {
	job     remoteJob
	policy  core.RetryPolicy
	rawSpec []byte
	// slots[w][i] is the global vertex that takes the i-th state of
	// worker w's result (the worker concatenates its local shards in
	// ascending shard order, each shard's owned band in ascending global
	// order — the same order AssignShards and the plan fix here). The
	// shard→worker assignment depends only on the worker *count*, which
	// replacement preserves, so slots survive any number of swaps.
	slots [][]int

	// log and the metric series below come from the sampler's Config
	// (WithMetrics / WithLogger); all tolerate their zero state.
	log *slog.Logger
	reg *obs.Registry
	// errs[stage] counts WorkerErrors by failure stage.
	errs map[string]*obs.Counter
	// replacements counts standby workers swapped in for failed ones.
	replacements *obs.Counter

	// addrMu guards the fleet view shared with the heartbeat
	// supervisor: the live address list (job.addrs), the standby pool,
	// and the per-address up gauges. Writers of job.addrs hold both mu
	// and addrMu, so a reader holding either lock sees a consistent
	// list.
	addrMu  sync.Mutex
	standby []string
	// up[addr] is the locsample_worker_up gauge for a worker address:
	// 1 while its session is established (or, with a heartbeat
	// supervisor running, while it answers pings).
	up map[string]*obs.Gauge

	// hbStop/hbDone bracket the heartbeat supervisor's lifetime; nil
	// when the policy has no heartbeat.
	hbStop    chan struct{}
	hbDone    chan struct{}
	closeOnce sync.Once

	mu    sync.Mutex
	conns []net.Conn // nil until the first draw connects, nil again after teardown
}

// Coordinator-side WorkerError stages, the label values of
// locsample_worker_errors_total.
const (
	errStageDial   = "dial"
	errStageReady  = "ready"
	errStageReject = "reject"
	errStageRun    = "run"
	errStageResult = "result"
)

// setObs wires the coordinator's metrics and logger (both optional;
// reg may be nil — the obs accessors then return no-op metrics) and
// starts the heartbeat supervisor when the policy asks for one. Every
// fleet address — live and standby — gets its up gauge created here so
// the series exist (at 0) before the first draw.
func (r *remoteEngine) setObs(reg *obs.Registry, log *slog.Logger) {
	if log != nil {
		r.log = log
	}
	r.reg = reg
	r.addrMu.Lock()
	for _, addr := range r.job.addrs {
		r.upGaugeLocked(addr)
	}
	for _, addr := range r.standby {
		r.upGaugeLocked(addr)
	}
	r.addrMu.Unlock()
	r.errs = map[string]*obs.Counter{}
	for _, stage := range []string{errStageDial, errStageReady, errStageReject, errStageRun, errStageResult} {
		r.errs[stage] = reg.Counter("locsample_worker_errors_total", "coordinator-side worker failures by stage", "stage", stage)
	}
	r.replacements = reg.Counter("locsample_worker_replacements_total", "standby workers swapped in for failed ones")
	if r.policy.Heartbeat > 0 {
		r.hbStop = make(chan struct{})
		r.hbDone = make(chan struct{})
		go r.supervise()
	}
}

// upGaugeLocked returns (creating on first use) the up gauge for a
// worker address. Callers hold addrMu.
func (r *remoteEngine) upGaugeLocked(addr string) *obs.Gauge {
	if g, ok := r.up[addr]; ok {
		return g
	}
	g := r.reg.Gauge("locsample_worker_up", "1 while the worker session is established (or the worker answers heartbeats)", "addr", addr)
	if r.up == nil {
		r.up = map[string]*obs.Gauge{}
	}
	r.up[addr] = g
	return g
}

func (r *remoteEngine) upGauge(addr string) *obs.Gauge {
	r.addrMu.Lock()
	defer r.addrMu.Unlock()
	return r.upGaugeLocked(addr)
}

// supervise is the heartbeat loop: every policy.Heartbeat it pings the
// whole fleet — live workers and standbys — over short-lived control
// connections, keeping the up gauges honest between draws and logging
// state transitions. It is detection only; recovery belongs to the
// draw path's deadline/retry/replacement machinery, so a flapping
// heartbeat can never tear down a healthy session.
func (r *remoteEngine) supervise() {
	defer close(r.hbDone)
	tick := time.NewTicker(r.policy.Heartbeat)
	defer tick.Stop()
	last := map[string]bool{}
	for {
		select {
		case <-r.hbStop:
			return
		case <-tick.C:
		}
		r.addrMu.Lock()
		addrs := append([]string(nil), r.job.addrs...)
		addrs = append(addrs, r.standby...)
		r.addrMu.Unlock()
		timeout := r.policy.Heartbeat
		if r.policy.DialTimeout < timeout {
			timeout = r.policy.DialTimeout
		}
		for _, addr := range addrs {
			_, err := transport.Ping(addr, timeout)
			ok := err == nil
			if ok {
				r.upGauge(addr).Set(1)
			} else {
				r.upGauge(addr).Set(0)
			}
			if prev, seen := last[addr]; !seen || prev != ok {
				if r.log != nil {
					if ok {
						r.log.Info("worker heartbeat up", "addr", addr)
					} else {
						r.log.Warn("worker heartbeat failed", "addr", addr, "err", err)
					}
				}
				last[addr] = ok
			}
		}
	}
}

// workerErr builds the typed error for a worker failure, counts it, and
// logs it.
func (r *remoteEngine) workerErr(stage string, w int, err error) *WorkerError {
	we := &WorkerError{Worker: w, Addr: r.job.addrs[w], Err: err}
	if r.errs != nil {
		r.errs[stage].Inc()
	}
	if r.log != nil {
		r.log.Warn("worker failure", "stage", stage, "worker", w, "addr", we.Addr, "err", err)
	}
	return we
}

func newRemoteEngine(job remoteJob, plan *partition.Layout, policy core.RetryPolicy, standby []string) (*remoteEngine, error) {
	raw, err := EncodeSpec(job.spec)
	if err != nil {
		return nil, fmt.Errorf("locsample: encoding the remote job's spec: %w", err)
	}
	// Every shard's owned band, ascending in global ID — the order its
	// worker returns the band's states in.
	owned := make([][]int, plan.K)
	for v, s := range plan.Owner {
		owned[s] = append(owned[s], v)
	}
	assign := partition.AssignShards(job.shards, len(job.addrs))
	slots := make([][]int, len(job.addrs))
	for s, band := range owned {
		slots[assign[s]] = append(slots[assign[s]], band...)
	}
	// The job's address list is owned (and edited, on replacement) by
	// the engine; copy so the caller's slice stays theirs.
	job.addrs = append([]string(nil), job.addrs...)
	return &remoteEngine{
		job:     job,
		policy:  policy.WithDefaults(),
		rawSpec: raw,
		slots:   slots,
		standby: append([]string(nil), standby...),
	}, nil
}

// connect dials every worker, ships the job, and waits for the full
// mesh to come up. All job messages go out before any ready is awaited:
// the workers dial each other to build the frame mesh, so waiting for
// them one at a time would deadlock.
func (r *remoteEngine) connect() error {
	conns := make([]net.Conn, len(r.job.addrs))
	cleanup := func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	}
	// The job ID only disambiguates concurrent meshes on shared workers;
	// it never feeds the chains' randomness, so a non-deterministic draw
	// here cannot perturb sampling outputs.
	jobID := rand.Uint64()
	for w, addr := range r.job.addrs {
		c, err := transport.DialControl(addr, r.policy.DialTimeout)
		if err != nil {
			cleanup()
			return r.workerErr(errStageDial, w, err)
		}
		conns[w] = c
		msg := &transport.ControlMsg{Kind: "job", Job: &transport.JobMsg{
			Proto:     transport.ControlProtoVersion,
			JobID:     jobID,
			Kind:      r.job.kind,
			Spec:      r.rawSpec,
			Algorithm: r.job.algorithm,
			DropRule3: r.job.dropRule3,
			Shards:    r.job.shards,
			Strategy:  r.job.strategy,
			PlanSeed:  r.job.planSeed,
			Init:      r.job.init,
			Workers:   r.job.addrs,
			Self:      w,
		}}
		if err := transport.WriteControl(c, msg, r.policy.WriteTimeout); err != nil {
			cleanup()
			return r.workerErr(errStageDial, w, fmt.Errorf("sending job: %w", err))
		}
	}
	for w, c := range conns {
		m, err := transport.ReadControl(c, r.policy.ReadyTimeout)
		if err != nil {
			cleanup()
			return r.workerErr(errStageReady, w, fmt.Errorf("awaiting ready: %w", err))
		}
		if m.Kind != "ready" || m.Ready == nil {
			cleanup()
			return r.workerErr(errStageReady, w,
				fmt.Errorf("unexpected %q control message awaiting ready", m.Kind))
		}
		if !m.Ready.OK {
			cleanup()
			return r.workerErr(errStageReject, w, fmt.Errorf("job rejected: %s", m.Ready.Error))
		}
	}
	r.conns = conns
	for _, addr := range r.job.addrs {
		r.upGauge(addr).Set(1)
	}
	if r.log != nil {
		r.log.Info("worker session established", "workers", len(conns), "shards", r.job.shards, "kind", r.job.kind)
	}
	return nil
}

// teardown closes the control connections; the workers notice and tear
// down their mesh (aborting any in-flight rounds).
func (r *remoteEngine) teardown() {
	for _, c := range r.conns {
		if c != nil {
			c.Close()
		}
	}
	r.conns = nil
	for _, addr := range r.job.addrs {
		r.upGauge(addr).Set(0)
	}
}

// replace swaps the next standby into slot w of the address list.
// Replacement preserves the worker count, so the shard→worker
// assignment — and with it the slots tables and every worker's owned
// band — is unchanged; the next connect ships the job to the edited
// fleet and the redraw recomputes the dead worker's shards from
// (spec, plan, seed). Nothing the dead worker held is needed. With no
// standby left the retry runs against the existing fleet (the worker
// may have merely restarted).
func (r *remoteEngine) replace(w int) {
	r.addrMu.Lock()
	defer r.addrMu.Unlock()
	old := r.job.addrs[w]
	if len(r.standby) == 0 {
		if r.log != nil {
			r.log.Warn("no standby worker available; retrying on the same fleet", "worker", w, "addr", old)
		}
		return
	}
	next := r.standby[0]
	r.standby = r.standby[1:]
	// Reslice rather than mutate: a concurrent supervisor pass may hold
	// the previous address snapshot.
	addrs := append([]string(nil), r.job.addrs...)
	addrs[w] = next
	r.job.addrs = addrs
	if g := r.up[old]; g != nil {
		g.Set(0)
	}
	r.replacements.Inc()
	if r.log != nil {
		r.log.Warn("replacing failed worker with standby", "worker", w, "old", old, "new", next, "standbys_left", len(r.standby))
	}
}

// resolveRetry resolves a Config's coordinator retry policy (nil means
// the defaults — the historical retry-once behavior).
func resolveRetry(cfg *core.Config) core.RetryPolicy {
	if cfg.Retry != nil {
		return cfg.Retry.WithDefaults()
	}
	return core.DefaultRetryPolicy()
}

// ctxErr is ctx.Err for possibly-nil contexts.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// pause sleeps the jittered exponential backoff before the attempt
// following the `failures`-th failure, aborting early if ctx is
// canceled. The jitter comes from math/rand, never from the chains'
// PRF: it cannot perturb sampling outputs.
func (r *remoteEngine) pause(ctx context.Context, failures int) error {
	d := r.policy.Delay(failures)
	if r.policy.Jitter > 0 {
		d += time.Duration(rand.Float64() * r.policy.Jitter * float64(d))
	}
	if d <= 0 {
		return ctxErr(ctx)
	}
	if ctx == nil || ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return ctxErr(ctx)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// draw runs one cross-process draw, reassembling the configuration into
// out. On failure it tears the session down and retries with fresh
// connections under the RetryPolicy — jittered exponential backoff
// between attempts, the failed worker swapped for a standby when one is
// available — because the draw is a pure function of (seed, rounds): a
// rerun after any failure (worker killed, stalled past the result
// deadline, connection dropped) returns the identical configuration.
// When the attempt budget is spent the session is left torn down and
// the last attempt's typed error is returned. A failed attempt writes
// nothing into out or tr — results are buffered until every worker has
// returned OK — so each retry starts from a clean trace and a partial
// failure can never duplicate round spans.
//
// A canceled ctx aborts the draw at the next opportunity: in-flight
// control reads are unblocked by closing the connections, no further
// attempts run, and ctx.Err() is returned.
//
// A non-nil tr makes the draw traced: the run requests ask workers to
// record per-shard round timing, and the returned series are grafted
// into tr as spans under one pid per worker process.
func (r *remoteEngine) draw(ctx context.Context, seed uint64, rounds int, out []int, tr *obs.Trace) (ShardStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	var lastErr error
	for attempt := 1; attempt <= r.policy.Attempts; attempt++ {
		if attempt > 1 {
			r.teardown()
			var we *WorkerError
			if errors.As(lastErr, &we) {
				r.replace(we.Worker)
			}
			if err := r.pause(ctx, attempt-1); err != nil {
				return ShardStats{}, err
			}
		}
		if err := ctxErr(ctx); err != nil {
			return ShardStats{}, err
		}
		st, err := r.drawOnce(ctx, seed, rounds, out, tr)
		if err == nil {
			return st, nil
		}
		if cerr := ctxErr(ctx); cerr != nil {
			r.teardown()
			return ShardStats{}, cerr
		}
		lastErr = err
	}
	r.teardown()
	return ShardStats{}, lastErr
}

func (r *remoteEngine) drawOnce(ctx context.Context, seed uint64, rounds int, out []int, tr *obs.Trace) (ShardStats, error) {
	if r.conns == nil {
		if err := r.connect(); err != nil {
			return ShardStats{}, err
		}
	}
	// Cancellation must unblock control reads that may legitimately wait
	// the full result deadline: closing the connections turns them into
	// immediate read errors, and draw maps those to ctx.Err().
	if ctx != nil && ctx.Done() != nil {
		conns := r.conns
		stop := context.AfterFunc(ctx, func() {
			for _, c := range conns {
				if c != nil {
					c.Close()
				}
			}
		})
		defer stop()
	}
	drawStart := tr.Now()
	run := &transport.ControlMsg{Kind: "run", Run: &transport.RunMsg{Seed: seed, Rounds: rounds, Trace: tr != nil}}
	for w, c := range r.conns {
		if err := transport.WriteControl(c, run, r.policy.WriteTimeout); err != nil {
			r.teardown()
			return ShardStats{}, r.workerErr(errStageRun, w, fmt.Errorf("sending run: %w", err))
		}
	}
	// Collect every worker's result before touching out or tr: a draw
	// can fail on worker w after workers 0..w-1 returned fine, and the
	// caller then retries with the same output buffer and trace. Scatter
	// or graft inside this loop and a partial failure would leave stale
	// states in out and duplicate the successful workers' round spans on
	// the retried trace.
	st := ShardStats{Shards: r.job.shards, Rounds: rounds}
	results := make([]*transport.ResultMsg, len(r.conns))
	for w, c := range r.conns {
		m, err := transport.ReadControl(c, r.policy.ResultTimeout)
		if err != nil {
			r.teardown()
			return ShardStats{}, r.workerErr(errStageResult, w, fmt.Errorf("awaiting result: %w", err))
		}
		if m.Kind != "result" || m.Result == nil {
			r.teardown()
			return ShardStats{}, r.workerErr(errStageResult, w,
				fmt.Errorf("unexpected %q control message awaiting result", m.Kind))
		}
		res := m.Result
		if !res.OK {
			r.teardown()
			return ShardStats{}, r.workerErr(errStageResult, w, fmt.Errorf("draw failed: %s", res.Error))
		}
		if len(res.States) != len(r.slots[w]) {
			r.teardown()
			return ShardStats{}, r.workerErr(errStageResult, w,
				fmt.Errorf("result carries %d states, want %d", len(res.States), len(r.slots[w])))
		}
		results[w] = res
	}
	for w, res := range results {
		for i, v := range res.States {
			out[r.slots[w][i]] = v
		}
		st.BoundaryMessages += res.Msgs
		st.BoundaryValues += res.Vals
		st.BarrierWaitNS += res.WaitNS
		st.WireFrames += res.WireFrames
		st.WireBytes += res.WireBytes
		if tr != nil && res.Trace != nil {
			r.graftWorkerTrace(tr, w, res, drawStart)
		}
	}
	if tr != nil {
		span := obs.Span{Name: "remote.draw", PID: 0, TID: 0, StartNS: drawStart, DurNS: tr.Now() - drawStart}
		span.SetArg("seed", int64(seed))
		span.SetArg("rounds", int64(rounds))
		span.SetArg("shards", int64(st.Shards))
		span.SetArg("wire_frames", st.WireFrames)
		span.SetArg("wire_bytes", st.WireBytes)
		tr.Add(span)
	}
	return st, nil
}

// graftWorkerTrace merges one worker's round series into the
// coordinator's trace. Worker w gets pid w+1 (the coordinator is pid 0);
// each local shard becomes a tid with per-round compute/barrier spans,
// and a process-level span carries the worker's wire attribution.
func (r *remoteEngine) graftWorkerTrace(tr *obs.Trace, w int, res *transport.ResultMsg, drawStart int64) {
	pid := w + 1
	tr.SetProcessName(pid, fmt.Sprintf("worker %d (%s)", w, r.job.addrs[w]))
	for _, sh := range res.Trace.Shards {
		obs.AddShardRounds(tr, pid, sh.Shard, sh.ComputeNS, sh.BarrierNS, sh.Flips, sh.EndNS)
	}
	span := obs.Span{Name: "worker.result", PID: pid, TID: -1, StartNS: drawStart, DurNS: tr.Now() - drawStart}
	span.SetArg("wire_frames", res.WireFrames)
	span.SetArg("wire_bytes", res.WireBytes)
	span.SetArg("barrier_wait_ns", res.WaitNS)
	span.SetArg("boundary_msgs", res.Msgs)
	span.SetArg("boundary_vals", res.Vals)
	tr.Add(span)
}

// Close stops the heartbeat supervisor and tears the worker session
// down.
func (r *remoteEngine) Close() error {
	r.closeOnce.Do(func() {
		if r.hbStop != nil {
			close(r.hbStop)
			<-r.hbDone
		}
	})
	r.mu.Lock()
	defer r.mu.Unlock()
	r.teardown()
	return nil
}
