package service

// The lsharded worker: one process hosting a slice of a sharded chain's
// plan. A coordinator (locsample.WithRemoteWorkers, typically inside
// lserved) sends each worker a job — the model's wire spec plus the
// plan parameters — over a control connection; the worker rebuilds the
// model and plan deterministically, meshes up with its peer workers
// over TCP, and then serves lockstep draws until the control connection
// closes. Both reconstructions are pure functions of the job message,
// which is what makes a cross-process draw byte-identical to the
// centralized chain: the shards compute exactly the PRF-keyed updates
// the local engine would, only placed on other machines.

import (
	"fmt"
	"log/slog"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"locsample"
	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/obs"
	"locsample/internal/partition"
	"locsample/internal/spec"
	"locsample/internal/transport"
)

// WorkerConfig tunes an lsharded worker.
type WorkerConfig struct {
	// ReadyTimeout bounds job setup — model build, mesh dial, peer
	// attach (default 30s).
	ReadyTimeout time.Duration
	// RecvTimeout bounds each boundary Recv once rounds run (default
	// 60s); it is the deadline that turns a lost frame or dead peer
	// into a typed error instead of a hang.
	RecvTimeout time.Duration
	// WrapTransport, when non-nil, wraps each job's boundary fabric
	// before the engine sees it — the fault-injection hook.
	WrapTransport func(transport.Transport) transport.Transport
	// Log sinks worker logs (nil discards them).
	Log *slog.Logger
	// Obs receives the worker's metrics (jobs, draws, round timing).
	// Nil disables metering — the obs metric types treat a nil registry
	// as a no-op sink, so the worker code never branches on it.
	Obs *obs.Registry
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.ReadyTimeout <= 0 {
		c.ReadyTimeout = 30 * time.Second
	}
	if c.RecvTimeout <= 0 {
		c.RecvTimeout = 60 * time.Second
	}
	if c.Log == nil {
		c.Log = obs.NopLogger()
	}
	return c
}

// workerMetrics is the lsharded metric family set. With a nil registry
// every field is a typed nil whose methods are no-ops.
type workerMetrics struct {
	jobsActive   *obs.Gauge
	jobsTotal    *obs.Counter
	jobsRejected *obs.Counter
	draws        *obs.Counter
	drawErrors   *obs.Counter
	drawSeconds  *obs.Histogram
	rounds       *obs.RoundMetrics
}

func newWorkerMetrics(r *obs.Registry) workerMetrics {
	return workerMetrics{
		jobsActive:   r.Gauge("lsharded_jobs_active", "jobs currently hosted"),
		jobsTotal:    r.Counter("lsharded_jobs_total", "jobs accepted since start"),
		jobsRejected: r.Counter("lsharded_jobs_rejected_total", "jobs rejected (bad spec, mesh failure, draining)"),
		draws:        r.Counter("lsharded_draws_total", "draws served"),
		drawErrors:   r.Counter("lsharded_draw_errors_total", "draws that failed"),
		drawSeconds:  r.Histogram("lsharded_draw_seconds", "per-draw wall time", 1e-9),
		rounds: &obs.RoundMetrics{
			ComputeNS: r.Histogram("lsharded_round_compute_seconds", "per-shard per-round kernel time", 1e-9),
			BarrierNS: r.Histogram("lsharded_round_barrier_seconds", "per-shard per-round barrier wait", 1e-9),
			Flips:     r.Counter("lsharded_round_flips_total", "accepted vertex updates"),
			Rounds:    r.Counter("lsharded_rounds_total", "shard-rounds executed"),
		},
	}
}

// Worker is a running lsharded process: an accept loop demultiplexing
// coordinator control connections and peer frame streams by their
// opening magic.
type Worker struct {
	cfg     WorkerConfig
	ln      net.Listener
	metrics workerMetrics

	// draining refuses new jobs while letting hosted ones finish — the
	// SIGTERM half of graceful shutdown; Close is the other half.
	draining atomic.Bool

	mu      sync.Mutex
	jobs    map[uint64]*workerJob
	pending map[uint64][]pendingPeer
	conns   map[net.Conn]struct{} // every accepted conn still inside a handler
	closed  bool
	wg      sync.WaitGroup
}

// pendingPeer is an inbound peer connection whose job has not arrived
// yet (peer workers may dial before our own JobMsg lands).
type pendingPeer struct {
	from int
	c    net.Conn
	at   time.Time
}

// workerJob is one hosted job: the engine over this process's shards
// and the mesh it exchanges boundaries through.
type workerJob struct {
	id     uint64
	tcp    *transport.TCP
	eng    shardEngine
	init   []int
	out    []int
	owned  []int // global vertex IDs in result order
	local  []int // shard IDs this process hosts, ascending
	shards int   // total shard count of the plan

	// metricsObs stays attached to the engine between draws; traced
	// draws tee a per-draw recorder onto it.
	metricsObs *obs.RoundMetrics

	prevFrames, prevBytes int64
}

// shardEngine is the slice of the cluster engines a job needs.
type shardEngine interface {
	Run(init []int, seed uint64, rounds int, out []int) (cluster.Stats, error)
	SetObserver(chains.RoundObserver)
	Close() error
}

// NewWorker listens on addr and starts serving jobs. Use Addr to learn
// the bound address (addr may end in ":0").
func NewWorker(addr string, cfg WorkerConfig) (*Worker, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	w := &Worker{
		cfg:     cfg,
		ln:      ln,
		metrics: newWorkerMetrics(cfg.Obs),
		jobs:    make(map[uint64]*workerJob),
		pending: make(map[uint64][]pendingPeer),
		conns:   make(map[net.Conn]struct{}),
	}
	w.wg.Add(1)
	go w.acceptLoop()
	return w, nil
}

// Addr returns the address the worker accepts connections on.
func (w *Worker) Addr() string { return w.ln.Addr().String() }

// Drain puts the worker into draining mode: new jobs are rejected while
// hosted jobs keep serving draws until their coordinators hang up. Call
// Close once ActiveJobs reaches zero (or a drain deadline expires).
func (w *Worker) Drain() { w.draining.Store(true) }

// Draining reports whether Drain has been called.
func (w *Worker) Draining() bool { return w.draining.Load() }

// ActiveJobs returns the number of jobs currently hosted.
func (w *Worker) ActiveJobs() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.jobs)
}

// Close stops the accept loop and tears down every hosted job.
func (w *Worker) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return nil
	}
	w.closed = true
	jobs := make([]*workerJob, 0, len(w.jobs))
	for _, j := range w.jobs {
		jobs = append(jobs, j)
	}
	var stray []net.Conn
	for _, ps := range w.pending {
		for _, p := range ps {
			stray = append(stray, p.c)
		}
	}
	w.pending = map[uint64][]pendingPeer{}
	// Close active handler conns too — an idle control session blocks in
	// a deadline-free ReadControl and would park wg.Wait until its
	// coordinator hung up.
	for c := range w.conns {
		stray = append(stray, c)
	}
	w.mu.Unlock()
	err := w.ln.Close()
	for _, j := range jobs {
		j.eng.Close()
	}
	for _, c := range stray {
		c.Close()
	}
	w.wg.Wait()
	return err
}

// track registers an accepted conn so Close can interrupt its handler;
// it refuses conns that race a shutdown.
func (w *Worker) track(c net.Conn) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return false
	}
	w.conns[c] = struct{}{}
	return true
}

func (w *Worker) untrack(c net.Conn) {
	w.mu.Lock()
	delete(w.conns, c)
	w.mu.Unlock()
}

func (w *Worker) acceptLoop() {
	defer w.wg.Done()
	for {
		c, err := w.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if !w.track(c) {
			c.Close()
			return
		}
		w.wg.Add(1)
		go func() {
			defer w.wg.Done()
			defer w.untrack(c)
			w.handleConn(c)
		}()
	}
}

func (w *Worker) handleConn(c net.Conn) {
	magic, err := transport.ReadMagic(c, w.cfg.ReadyTimeout)
	if err != nil {
		c.Close()
		return
	}
	switch magic {
	case transport.MagicControl:
		w.handleControl(c)
	case transport.MagicPeer:
		jobID, from, err := transport.ReadPeerHello(c, w.cfg.ReadyTimeout)
		if err != nil {
			c.Close()
			return
		}
		c.SetReadDeadline(time.Time{})
		w.deliverPeer(jobID, from, c)
	default:
		w.cfg.Log.Warn("connection with unknown magic", "magic", fmt.Sprintf("%q", magic[:]), "remote", c.RemoteAddr().String())
		c.Close()
	}
}

// deliverPeer attaches an inbound peer stream to its job's mesh, or
// parks it until the JobMsg arrives (peer workers race our coordinator).
func (w *Worker) deliverPeer(jobID uint64, from int, c net.Conn) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		c.Close()
		return
	}
	if j, ok := w.jobs[jobID]; ok {
		w.mu.Unlock()
		if err := j.tcp.AddConn(from, c); err != nil {
			w.cfg.Log.Warn("attach peer failed", "job", fmt.Sprintf("%x", jobID), "peer", from, "err", err)
			c.Close()
		}
		return
	}
	// Prune parked peers nobody claimed (their coordinator died between
	// meshing and job delivery).
	cutoff := time.Now().Add(-w.cfg.ReadyTimeout)
	for id, ps := range w.pending {
		kept := ps[:0]
		for _, p := range ps {
			if p.at.Before(cutoff) {
				p.c.Close()
			} else {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			delete(w.pending, id)
		} else {
			w.pending[id] = kept
		}
	}
	w.pending[jobID] = append(w.pending[jobID], pendingPeer{from: from, c: c, at: time.Now()})
	w.mu.Unlock()
}

// pong answers a liveness probe. Draining workers still answer — a
// draining worker is alive, it just won't take jobs — and report the
// drain bit so supervisors can steer new work elsewhere.
func (w *Worker) pong(c net.Conn) error {
	return transport.WriteControl(c, &transport.ControlMsg{
		Kind: "pong", Pong: &transport.PongMsg{Draining: w.Draining(), ActiveJobs: w.ActiveJobs()},
	}, w.cfg.ReadyTimeout)
}

// handleControl runs one coordinator session: job, ready, then a run
// loop until the connection drops (which tears the job down — a
// coordinator teardown is how jobs end). A session may also be a bare
// liveness probe: "ping" messages get a "pong" both before a job lands
// (heartbeat connections) and between draws.
func (w *Worker) handleControl(c net.Conn) {
	defer c.Close()
	m, err := transport.ReadControl(c, w.cfg.ReadyTimeout)
	if err != nil {
		return
	}
	for m.Kind == "ping" {
		if err := w.pong(c); err != nil {
			return
		}
		if m, err = transport.ReadControl(c, w.cfg.ReadyTimeout); err != nil {
			return
		}
	}
	if m.Kind != "job" || m.Job == nil {
		return
	}
	job := m.Job
	jobID := fmt.Sprintf("%x", job.JobID)
	reject := func(err error) {
		w.cfg.Log.Warn("job rejected", "job", jobID, "err", err)
		w.metrics.jobsRejected.Inc()
		transport.WriteControl(c, &transport.ControlMsg{
			Kind: "ready", Ready: &transport.ReadyMsg{OK: false, Error: err.Error()},
		}, w.cfg.ReadyTimeout)
	}
	if w.Draining() {
		reject(fmt.Errorf("worker: draining"))
		return
	}
	js, err := w.buildJob(job)
	if err != nil {
		reject(err)
		return
	}
	defer w.dropJob(js)
	if err := w.mesh(js); err != nil {
		reject(err)
		return
	}
	if err := transport.WriteControl(c, &transport.ControlMsg{
		Kind: "ready", Ready: &transport.ReadyMsg{OK: true},
	}, w.cfg.ReadyTimeout); err != nil {
		return
	}
	w.metrics.jobsTotal.Inc()
	w.metrics.jobsActive.Add(1)
	defer w.metrics.jobsActive.Add(-1)
	w.cfg.Log.Info("job ready", "job", jobID, "kind", job.Kind,
		"shards", job.Shards, "local", len(js.local), "owned", len(js.owned))
	for {
		m, err := transport.ReadControl(c, 0) // idle between draws
		if err != nil {
			return
		}
		if m.Kind == "ping" {
			if err := w.pong(c); err != nil {
				return
			}
			continue
		}
		if m.Kind != "run" || m.Run == nil {
			return
		}
		t0 := time.Now()
		res := js.run(m.Run.Seed, m.Run.Rounds, m.Run.Trace)
		elapsed := time.Since(t0)
		w.metrics.draws.Inc()
		w.metrics.drawSeconds.Observe(elapsed.Nanoseconds())
		if !res.OK {
			w.metrics.drawErrors.Inc()
			w.cfg.Log.Error("draw failed", "job", jobID, "err", res.Error)
		} else {
			w.cfg.Log.Debug("draw served", "job", jobID, "rounds", m.Run.Rounds,
				"traced", m.Run.Trace, "dur", elapsed)
		}
		if err := transport.WriteControl(c, &transport.ControlMsg{Kind: "result", Result: res}, w.cfg.ReadyTimeout); err != nil {
			return
		}
		if !res.OK {
			// The engine's transport is poisoned; the session cannot
			// serve another draw. The coordinator reconnects with a
			// fresh job.
			return
		}
	}
}

// buildJob rebuilds the model, plan, and engine a JobMsg describes.
// Everything here is deterministic in the message's fields.
func (w *Worker) buildJob(job *transport.JobMsg) (*workerJob, error) {
	if job.Proto != transport.ControlProtoVersion {
		return nil, fmt.Errorf("worker: control protocol %d, want %d", job.Proto, transport.ControlProtoVersion)
	}
	if job.Self < 0 || job.Self >= len(job.Workers) {
		return nil, fmt.Errorf("worker: self index %d out of range (%d workers)", job.Self, len(job.Workers))
	}
	if job.Shards < len(job.Workers) || job.Shards < 2 {
		return nil, fmt.Errorf("worker: %d shards across %d workers", job.Shards, len(job.Workers))
	}
	sp, err := spec.Decode(job.Spec)
	if err != nil {
		return nil, err
	}
	built, err := spec.BuildValid(sp, "") // Decode validated; a job needs no content address
	if err != nil {
		return nil, err
	}
	if n := built.Graph.N(); job.Shards > n {
		return nil, fmt.Errorf("worker: %d shards for %d vertices", job.Shards, n)
	}
	strat, err := partition.ParseStrategy(job.Strategy)
	if err != nil {
		return nil, err
	}
	assign := partition.AssignShards(job.Shards, len(job.Workers))
	var local []int
	for s, p := range assign {
		if p == job.Self {
			local = append(local, s)
		}
	}

	js := &workerJob{
		id:         job.JobID,
		init:       append([]int(nil), job.Init...),
		local:      local,
		shards:     job.Shards,
		metricsObs: w.metrics.rounds,
	}
	var neighbors [][]int
	var mkEngine func(tr transport.Transport) (shardEngine, error)
	switch job.Kind {
	case "mrf":
		if built.MRF == nil {
			return nil, fmt.Errorf("worker: job kind mrf but spec kind %q", sp.Model.Kind)
		}
		alg, err := ParseAlgorithm(job.Algorithm)
		if err != nil {
			return nil, err
		}
		plan, err := partition.Build(built.MRF.G, job.Shards, strat, job.PlanSeed)
		if err != nil {
			return nil, err
		}
		neighbors = plan.NeighborLists()
		for _, s := range local {
			sh := plan.Shards[s]
			for _, g := range sh.Global[:sh.NOwned] {
				js.owned = append(js.owned, int(g))
			}
		}
		js.out = make([]int, built.MRF.G.N())
		mkEngine = func(tr transport.Transport) (shardEngine, error) {
			return cluster.NewWithTransport(built.MRF, plan, alg, job.DropRule3, local, tr)
		}
	case "csp":
		if built.CSP == nil {
			return nil, fmt.Errorf("worker: job kind csp but spec kind %q", sp.Model.Kind)
		}
		plan, err := partition.BuildCSP(built.CSP, job.Shards, strat, job.PlanSeed)
		if err != nil {
			return nil, err
		}
		neighbors = plan.NeighborLists()
		for _, s := range local {
			sh := plan.Shards[s]
			for _, g := range sh.Global[:sh.NOwned] {
				js.owned = append(js.owned, int(g))
			}
		}
		js.out = make([]int, built.CSP.N)
		mkEngine = func(tr transport.Transport) (shardEngine, error) {
			return cluster.NewCSPWithTransport(built.CSP, plan, locsample.LubyGlauber, local, tr)
		}
	default:
		return nil, fmt.Errorf("worker: unknown job kind %q", job.Kind)
	}
	if len(js.init) != len(js.out) {
		return nil, fmt.Errorf("worker: init carries %d states for %d vertices", len(js.init), len(js.out))
	}
	var q int
	if built.MRF != nil {
		q = built.MRF.Q
	} else {
		q = built.CSP.Q
	}
	for v, x := range js.init {
		if x < 0 || x >= q {
			return nil, fmt.Errorf("worker: init[%d] = %d out of [0,%d)", v, x, q)
		}
	}

	tcp, err := transport.NewTCP(transport.TCPConfig{
		JobID:       job.JobID,
		Self:        job.Self,
		Addrs:       job.Workers,
		Assign:      assign,
		Neighbors:   neighbors,
		DialTimeout: w.cfg.ReadyTimeout,
		RecvTimeout: w.cfg.RecvTimeout,
	})
	if err != nil {
		return nil, err
	}
	js.tcp = tcp
	var tr transport.Transport = transport.NewRouter(assign,
		transport.NewChan(neighbors, w.cfg.RecvTimeout), tcp)
	if w.cfg.WrapTransport != nil {
		tr = w.cfg.WrapTransport(tr)
	}
	eng, err := mkEngine(tr)
	if err != nil {
		tr.Close()
		return nil, err
	}
	js.eng = eng
	// Round metrics stay attached for the job's lifetime; traced draws
	// tee a per-draw recorder onto them in run.
	eng.SetObserver(js.metricsObs)
	return js, nil
}

// mesh registers the job (adopting peers that dialed in early), dials
// the lower-index peers, and waits for the full mesh.
func (w *Worker) mesh(js *workerJob) error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return fmt.Errorf("worker: shutting down")
	}
	if _, ok := w.jobs[js.id]; ok {
		w.mu.Unlock()
		return fmt.Errorf("worker: job %x already hosted", js.id)
	}
	w.jobs[js.id] = js
	parked := w.pending[js.id]
	delete(w.pending, js.id)
	w.mu.Unlock()
	for _, p := range parked {
		if err := js.tcp.AddConn(p.from, p.c); err != nil {
			p.c.Close()
			return err
		}
	}
	if err := js.tcp.Dial(); err != nil {
		return err
	}
	return js.tcp.Ready(w.cfg.ReadyTimeout)
}

func (w *Worker) dropJob(js *workerJob) {
	w.mu.Lock()
	delete(w.jobs, js.id)
	w.mu.Unlock()
	js.eng.Close() // closes the router, closing Chan and TCP with it
}

// run executes one draw and packages this process's owned states (local
// shards ascending, owned bands in ascending global order — the slot
// order the coordinator reassembles by). With trace set it additionally
// records per-shard round timing and ships the series back so the
// coordinator can graft this process's spans into the draw's trace.
func (j *workerJob) run(seed uint64, rounds int, trace bool) *transport.ResultMsg {
	var rec *obs.RoundRecorder
	if trace {
		// The recorder is indexed by global shard ID; only this
		// process's rows get written. Swapped in for this draw only —
		// draws on one control session are serial, so this races
		// nothing.
		rec = obs.NewRoundRecorder(j.shards, rounds)
		j.eng.SetObserver(&obs.TeeRounds{A: rec, B: j.metricsObs})
		defer j.eng.SetObserver(j.metricsObs)
	}
	st, err := j.eng.Run(j.init, seed, rounds, j.out)
	if err != nil {
		return &transport.ResultMsg{Error: err.Error()}
	}
	states := make([]int, len(j.owned))
	for i, g := range j.owned {
		states[i] = j.out[g]
	}
	ctr := j.tcp.Stats()
	res := &transport.ResultMsg{
		OK:         true,
		States:     states,
		Msgs:       st.BoundaryMessages,
		Vals:       st.BoundaryValues,
		WaitNS:     st.BarrierWaitNS,
		WireFrames: ctr.FramesSent - j.prevFrames,
		WireBytes:  ctr.BytesSent - j.prevBytes,
	}
	j.prevFrames, j.prevBytes = ctr.FramesSent, ctr.BytesSent
	if rec != nil {
		tm := &transport.TraceMsg{Shards: make([]transport.ShardTraceMsg, 0, len(j.local))}
		for _, s := range j.local {
			compute, barrier, flips, end := rec.ShardRounds(s)
			tm.Shards = append(tm.Shards, transport.ShardTraceMsg{
				Shard:     s,
				ComputeNS: compute,
				BarrierNS: barrier,
				Flips:     flips,
				EndNS:     end,
			})
		}
		res.Trace = tm
	}
	return res
}
