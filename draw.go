package locsample

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/core"
	"locsample/internal/diag"
	"locsample/internal/obs"
	"locsample/internal/partition"
	"locsample/internal/transport"
)

// Batch is the result of a compiled draw: k independent samples drawn from
// one compiled model, MRF or CSP. All samples share one flat backing array.
type Batch struct {
	// Samples[i] is chain i's output configuration.
	Samples [][]int
	// Rounds is the number of chain iterations each chain executed.
	Rounds int
	// TheoryRounds is the automatic round budget (0 when WithRounds was
	// supplied, and always for CSPs).
	TheoryRounds int
	// Shard aggregates the sharded runtime's profile across all chains
	// (messages, values, and barrier waits are summed). Zero for
	// unsharded batches.
	Shard ShardStats
	// SoAWidth is the lane width of the SoA block engine the batch ran
	// through (0 when chains ran the per-chain reference path). Purely
	// informational: the samples are bit-identical either way.
	SoAWidth int
	// Trace is the timing trace of a traced draw (DrawRequest.Trace); nil
	// otherwise.
	Trace *Trace
	// Diagnosis is the mixing report of a diagnosed draw
	// (DrawRequest.Diagnose); nil otherwise.
	Diagnosis *Diagnosis
}

// DrawRequest parameterizes one Draw.
type DrawRequest struct {
	// Seed is the master seed: chain i runs at ChainSeed(Seed, i).
	Seed uint64
	// K is the number of independent chains.
	K int
	// Trace records the draw's timing trace into Batch.Trace: per-round
	// compute (and, for sharded draws, barrier) spans per shard lane, plus
	// per-worker wire attribution when the draw runs on remote workers.
	// Tracing never perturbs the trajectory. Needs K == 1.
	Trace bool
	// Diagnose runs a grand coupling alongside the draw and returns its
	// mixing report in Batch.Diagnosis: WithCoupling(k) chains (default 4)
	// advance from adversarial initial states under the draw's own PRF
	// coins; chain 0 of the coupling IS the draw, so the sample is
	// bit-identical to an undiagnosed one. Diagnosed draws run the full
	// compiled budget centralized and sequential (Batch.Shard is zero).
	// Needs K == 1, and excludes Trace.
	Diagnose bool
	// Probe, when non-nil, observes a diagnosed draw's coupling live, one
	// call per round (see CouplingProbe for the contract). Needs Diagnose.
	Probe CouplingProbe
}

// family is what MRF and CSP draws differ in. The draw core asks it for
// chain states, SoA blocks, shard engines, couplings and the remote job;
// budgets, pools, runtimes and metrics are the core's.
type family interface {
	// newChain returns a centralized chain state running the compiled
	// rounds (sequential or vertex-parallel).
	newChain() *chainState
	// newBlock returns an SoA block at most width lanes wide.
	newBlock(width int) *blockState
	// plan builds the shard plan that engines and the remote job run over.
	plan() (*partition.Layout, error)
	// newEngine returns an engine over the plan: every shard on the
	// default fabric when tr is nil, else the shards in local over tr.
	newEngine(local []int, tr transport.Transport) (*cluster.Engine, error)
	// newCoupled returns a grand coupling whose chain 0 is the chain at
	// seed.
	newCoupled(seed uint64, o diag.Options) (*diag.Coupled, error)
	// remoteJob returns the job remote workers host: model spec and chain.
	remoteJob() (remoteJob, error)
}

// chainState is one pooled centralized chain: a chains.Sampler or a
// csp.Chain, with its live configuration x (Reset reuses it).
type chainState struct {
	chainRunner
	*chains.Hooks
	x []int
}

type chainRunner interface {
	Reset(init []int, seed uint64)
	Run(t int)
}

// blockState is one pooled SoA block: a chains.SoABlock or a
// csp.SoABlock.
type blockState struct {
	blockRunner
	*chains.Hooks
}

type blockRunner interface {
	Reset(init []int, seeds []uint64)
	Run(t int)
	Scatter(dst [][]int)
	MaxWidth() int
}

// drawCore is the compiled-draw machinery Sampler and CSPSampler share:
// the resolved init and round budgets, the pooled chain states, SoA
// blocks and shard engines, the remote coordinator, and the metric
// series. Its methods are promoted to both samplers.
type drawCore struct {
	fam  family
	kind string // "mrf" | "csp": the metrics label and trace name
	cfg  core.Config
	init []int
	// rounds is the per-chain budget draws run; capRounds is the
	// worst-case budget a WithRoundsAuto compile measured under (0 when
	// the budget was not auto-measured).
	rounds    int
	theory    int
	capRounds int
	// shards is the shard count draws run with (1 when unsharded).
	shards int

	// engines pools in-process cluster engines over the shard plan: one
	// engine serves one draw at a time, so concurrent draws (the serving
	// path) each borrow their own. remote is the cross-process
	// coordinator (nil unless WithRemoteWorkers placed the shards on
	// lsharded processes); remote draws serialize on its control
	// connections.
	engines sync.Pool
	remote  *remoteEngine
	// chainPool pools centralized chain states, so the serving path's
	// steady state constructs and allocates nothing per draw. soaPool
	// pools SoA blocks, grow-only on width: a pooled block serves any
	// batch no wider than it was built for, and an undersized one is
	// dropped and rebuilt wider.
	chainPool sync.Pool
	soaPool   sync.Pool

	// Metric series (nil without WithMetrics). roundObs is the
	// allocation-free observer pooled chains, blocks and engines run
	// with; mDraws/mDrawNS meter whole draws.
	mDraws   *obs.Counter
	mDrawNS  *obs.Histogram
	roundObs *obs.RoundMetrics
}

// compile resolves everything draws reuse, from a config whose init and
// rounds (and theory budget) the family's Compile already resolved: the
// measured budget under WithRoundsAuto, the metric series, and — with
// WithShards — the plan plus an eagerly built engine or the remote
// coordinator.
func (d *drawCore) compile(fam family, kind string, cfg core.Config, init []int, rounds, theory int) error {
	d.fam, d.kind, d.cfg, d.init = fam, kind, cfg, init
	d.rounds, d.theory, d.shards = rounds, theory, 1
	if cfg.RoundsAuto {
		// Measure the coupling-coalescence budget once, at compile time,
		// under the worst-case cap just resolved. The measurement is
		// centralized and deterministic in (model, init, seed, k, cap), so
		// every sampler compiled with these options resolves the same
		// count — and a draw at that count is bit-identical to a
		// WithRounds(measured) draw by construction.
		c, err := fam.newCoupled(cfg.Seed, diag.Options{Chains: cfg.Coupling, MaxRounds: rounds})
		if err != nil {
			return err
		}
		d.capRounds, d.rounds = rounds, c.RunToCoalescence()
	}
	d.mDraws, d.mDrawNS, d.roundObs = newDrawMetrics(cfg.Obs, kind)
	d.chainPool.New = func() any {
		cs := fam.newChain()
		cs.Obs = d.observer()
		return cs
	}
	if cfg.Shards <= 1 {
		return nil
	}
	layout, err := fam.plan()
	if err != nil {
		return err
	}
	d.shards = layout.K
	if len(cfg.WorkerAddrs) > 0 {
		// Coordinator mode: the shards live in lsharded processes, which
		// rebuild the model from the job's spec.
		job, err := fam.remoteJob()
		if err != nil {
			return err
		}
		job.shards, job.strategy, job.planSeed = cfg.Shards, cfg.ShardStrategy.String(), cfg.Seed
		job.init, job.addrs = d.init, cfg.WorkerAddrs
		d.remote, err = newRemoteEngine(job, layout, resolveRetry(&cfg), cfg.StandbyAddrs)
		if err != nil {
			return err
		}
		d.remote.setObs(cfg.Obs, cfg.Log)
		return nil
	}
	newEngine := func() (*cluster.Engine, error) {
		var local []int
		var tr transport.Transport
		if cfg.Transport != nil {
			local = make([]int, layout.K)
			for i := range local {
				local[i] = i
			}
			tr = cfg.Transport(layout.NeighborLists())
		}
		eng, err := fam.newEngine(local, tr)
		if err == nil {
			eng.SetObserver(d.observer())
		}
		return eng, err
	}
	// Construct one engine eagerly: it both validates the algorithm and
	// pre-warms the pool for the first draw.
	eng, err := newEngine()
	if err != nil {
		return err
	}
	d.engines.New = func() any {
		e, err := newEngine()
		if err != nil {
			// Unreachable: the eager construction above vetted the same
			// arguments.
			panic(err)
		}
		return e
	}
	d.engines.Put(eng)
	return nil
}

// Close releases the sampler's external resources — the coordinator's
// control connections when draws run on remote workers. Purely local
// samplers hold nothing that needs closing; Close is safe either way.
func (d *drawCore) Close() error {
	if d.remote != nil {
		return d.remote.Close()
	}
	return nil
}

// Rounds returns the per-chain round budget the sampler resolved.
func (d *drawCore) Rounds() int { return d.rounds }

// TheoryRounds returns the automatic round budget, or 0 when WithRounds
// pinned the budget explicitly (always, for CSPs).
func (d *drawCore) TheoryRounds() int { return d.theory }

// CapRounds returns the worst-case budget a WithRoundsAuto compile
// measured under — Rounds() then holds the coupling-measured count.
// 0 when the budget was not auto-measured.
func (d *drawCore) CapRounds() int { return d.capRounds }

// Shards returns the shard count draws run with (1 when unsharded).
func (d *drawCore) Shards() int { return d.shards }

// ParallelRounds returns the vertex-parallel worker count each chain's
// rounds run with (1 when rounds are sequential).
func (d *drawCore) ParallelRounds() int { return max(d.cfg.Parallel, 1) }

// Draw is the one compiled draw. It runs req.K independent chains, chain i
// at ChainSeed(req.Seed, i), so a traced or diagnosed K=1 draw is chain 0
// of the plain draw with the same seed. Results are positionally stable:
// the same request always returns the same samples, whatever the worker
// count, scheduling, shard count, partition strategy or SoA width. Draw
// does not mutate the sampler, so concurrent draws (the serving path) are
// safe.
//
// A canceled ctx aborts the draw and returns ctx.Err(): no chain is
// claimed after it, centralized chains stop at their next round boundary,
// sharded engines are closed, and remote draws abort through the
// coordinator. A canceled draw never returns partial samples. Diagnosed
// draws check ctx only before they start.
func (d *drawCore) Draw(ctx context.Context, req DrawRequest) (*Batch, error) {
	switch {
	case req.Trace && req.Diagnose:
		return nil, fmt.Errorf("locsample: a draw is traced or diagnosed, not both")
	case (req.Trace || req.Diagnose) && req.K != 1:
		return nil, fmt.Errorf("locsample: traced and diagnosed draws run one chain; K must be 1, got %d", req.K)
	case req.Probe != nil && !req.Diagnose:
		return nil, fmt.Errorf("locsample: a coupling probe needs a diagnosed draw")
	case !req.Trace && !req.Diagnose:
		return d.sampleN(ctx, req.Seed, req.K)
	}
	seed := core.ChainSeed(req.Seed, 0)
	b := &Batch{Rounds: d.rounds, TheoryRounds: d.theory}
	var (
		x   []int
		err error
	)
	if req.Trace {
		b.Trace = d.newTrace()
		x, b.Shard, err = d.drawOne(ctx, seed, b.Trace)
	} else {
		x, b.Diagnosis, err = d.diagnose(ctx, seed, req.Probe)
	}
	if err != nil {
		return nil, err
	}
	b.Samples = [][]int{x}
	return b, nil
}

// SampleNFrom is the plain k-chain draw, Draw with
// DrawRequest{Seed: seed, K: k}, without a context.
func (d *drawCore) SampleNFrom(seed uint64, k int) (*Batch, error) {
	return d.sampleN(context.Background(), seed, k)
}

// newTrace starts a traced draw's trace.
func (d *drawCore) newTrace() *Trace { return obs.NewTrace(d.kind + " draw") }

// observer is the round observer pooled chains, blocks and engines run
// with (nil unless WithMetrics attached round metrics).
func (d *drawCore) observer() chains.RoundObserver {
	if d.roundObs != nil {
		return d.roundObs
	}
	return nil
}

// observeDraws meters `chains` draws that completed together — one chain,
// or one SoA block: the draw counter advances per chain, the latency
// histogram gets one observation per unit of work. No-op without
// WithMetrics.
func (d *drawCore) observeDraws(start time.Time, chains int) {
	if d.mDraws == nil {
		return
	}
	d.mDraws.Add(int64(chains))
	d.mDrawNS.Observe(time.Since(start).Nanoseconds())
}

// drawOne draws one configuration with chain seed `seed` (used as is, not
// derived), recording its timing trace into tr when tr is non-nil, and
// returns it with its shard profile (zero when unsharded).
func (d *drawCore) drawOne(ctx context.Context, seed uint64, tr *Trace) ([]int, ShardStats, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, ShardStats{}, err
	}
	abort := new(atomic.Bool)
	defer ctxWatch(ctx, func() { abort.Store(true) })()
	out := make([]int, len(d.init))
	st, err := d.runChain(ctx, seed, out, abort, tr)
	if err != nil {
		return nil, ShardStats{}, err
	}
	return out, st, nil
}

// runChain runs one chain at seed into out on the compiled runtime and
// returns its shard profile (sharded and remote draws). abort is the flag
// centralized chains poll at round boundaries; the caller arms it on ctx.
// A non-nil tr records the chain's per-round spans and a draw-level span;
// remote draws graft their workers' spans instead.
func (d *drawCore) runChain(ctx context.Context, seed uint64, out []int, abort *atomic.Bool, tr *Trace) (ShardStats, error) {
	start := time.Now()
	var (
		t0  int64
		rec *obs.RoundRecorder
		st  ShardStats
		err error
	)
	if tr != nil && d.remote == nil {
		t0 = tr.Now()
		rec = obs.NewRoundRecorder(d.shards, d.rounds)
	}
	switch {
	case d.remote != nil:
		st, err = d.remote.draw(ctx, seed, d.rounds, out, tr)
	case d.shards > 1:
		st, err = d.runEngine(ctx, seed, out, rec)
	default:
		cs := d.chainPool.Get().(*chainState)
		if rec != nil {
			cs.Obs = &obs.TeeRounds{A: rec, B: d.roundObs}
		}
		cs.Abort = abort
		cs.Reset(d.init, seed)
		cs.Run(d.rounds)
		copy(out, cs.x)
		cs.Obs, cs.Abort = d.observer(), nil
		d.chainPool.Put(cs)
		err = ctxErr(ctx)
	}
	if err != nil {
		return st, err
	}
	if rec != nil {
		rec.FlushTo(tr, 0)
		span := obs.Span{Name: "draw", StartNS: t0, DurNS: tr.Now() - t0}
		span.SetArg("seed", int64(seed))
		span.SetArg("rounds", int64(d.rounds))
		span.SetArg("shards", int64(d.shards))
		tr.Add(span)
	}
	d.observeDraws(start, 1)
	return st, nil
}

// runEngine runs one chain on a pooled shard engine, teeing its rounds
// into rec when non-nil. Cancellation closes the engine's transport: the
// lockstep workers fail their next exchange and Run returns. A closed or
// failed engine is poisoned (its transport is closed) and never re-pooled.
func (d *drawCore) runEngine(ctx context.Context, seed uint64, out []int, rec *obs.RoundRecorder) (ShardStats, error) {
	eng := d.engines.Get().(*cluster.Engine)
	if rec != nil {
		eng.SetObserver(&obs.TeeRounds{A: rec, B: d.roundObs})
	}
	stop := ctxWatch(ctx, func() { eng.Close() })
	st, err := eng.Run(d.init, seed, d.rounds, out)
	stop()
	if rec != nil {
		eng.SetObserver(d.observer())
	}
	if cerr := ctxErr(ctx); cerr != nil {
		err = cerr
	}
	if err != nil {
		eng.Close()
		return st, err
	}
	d.engines.Put(eng)
	return st, nil
}

// diagnose draws one configuration at chain seed `seed` with a grand
// coupling alongside it (see DrawRequest.Diagnose), reporting each round
// to probe when non-nil.
func (d *drawCore) diagnose(ctx context.Context, seed uint64, probe CouplingProbe) ([]int, *Diagnosis, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	c, err := d.fam.newCoupled(seed, diag.Options{Chains: d.cfg.Coupling, MaxRounds: d.rounds, Probe: probe, Obs: d.observer()})
	if err != nil {
		return nil, nil, err
	}
	c.Run(d.rounds)
	out := append([]int(nil), c.X()...)
	d.observeDraws(start, 1)
	return out, c.Finish(), nil
}

// sampleN draws k independent chains, chain i at ChainSeed(seed, i). In
// centralized mode batches wide enough run through SoA blocks, and
// otherwise every worker reuses pooled chain states, so beyond the result
// slices nothing is allocated per chain and nothing at all per round. In
// sharded mode every chain borrows a pooled engine and runs
// shard-parallel inside it.
func (d *drawCore) sampleN(ctx context.Context, seed uint64, k int) (*Batch, error) {
	if k < 0 {
		return nil, fmt.Errorf("locsample: a draw needs K >= 0, got %d", k)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	batch := &Batch{Samples: make([][]int, k), Rounds: d.rounds, TheoryRounds: d.theory}
	if k == 0 {
		return batch, nil
	}
	n := len(d.init)
	backing := make([]int, k*n)
	for i := range batch.Samples {
		batch.Samples[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	workers := d.workers()
	if width := d.soaWidth(k, workers); width > 0 {
		// ceil(k/width) lockstep blocks, claimed like chains; the tail
		// block runs with its natural lane count (lanes pack at the run
		// width, so no dead lanes are computed). Chain i's lane is
		// bit-identical to the per-chain path at ChainSeed(seed, i).
		batch.SoAWidth = width
		err := fanOut(ctx, workers, (k+width-1)/width, func(b int, abort *atomic.Bool) error {
			lo := b * width
			d.runBlock(seed, lo, width, batch.Samples[lo:min(lo+width, k)], abort)
			return nil
		})
		if err != nil {
			return nil, err
		}
		return batch, nil
	}
	shard := make([]ShardStats, k)
	err := fanOut(ctx, workers, k, func(i int, abort *atomic.Bool) error {
		var err error
		shard[i], err = d.runChain(ctx, core.ChainSeed(seed, uint64(i)), batch.Samples[i], abort, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, st := range shard {
		batch.Shard.Add(st)
	}
	return batch, nil
}

// workers is the worker pool size of a batch (WithWorkers, default
// GOMAXPROCS).
func (d *drawCore) workers() int {
	switch {
	case d.remote != nil:
		// Remote draws serialize on the coordinator's control connections;
		// each chain already fans out across the worker processes.
		return 1
	case d.cfg.Workers > 0:
		return d.cfg.Workers
	case d.shards > 1:
		// Each chain already runs Shards goroutines; dividing the pool
		// keeps total parallelism near GOMAXPROCS instead of
		// oversubscribing by that factor.
		return max(1, runtime.GOMAXPROCS(0)/d.shards)
	case d.cfg.Parallel > 1:
		// Same reasoning for vertex-parallel rounds: each chain fans its
		// phases over Parallel goroutines.
		return max(1, runtime.GOMAXPROCS(0)/d.cfg.Parallel)
	}
	return runtime.GOMAXPROCS(0)
}

// soaWidth is the SoA lane width a k-chain batch runs at, 0 for the
// per-chain path. Only centralized sequential chains with an SoA kernel
// batch.
func (d *drawCore) soaWidth(k, workers int) int {
	if d.shards > 1 || d.cfg.Parallel > 1 || !soaBatchable(d.cfg.Algorithm) {
		return 0
	}
	return batchWidth(d.cfg.BatchWidth, k, workers)
}

// runBlock runs chains lo, lo+1, … as the lanes of a pooled SoA block at
// least width lanes wide and scatters lane c into dst[c]. The block polls
// abort at round boundaries.
func (d *drawCore) runBlock(seed uint64, lo, width int, dst [][]int, abort *atomic.Bool) {
	blk, _ := d.soaPool.Get().(*blockState)
	if blk == nil || blk.MaxWidth() < width {
		blk = d.fam.newBlock(width)
		blk.Obs = d.observer()
	}
	seeds := make([]uint64, len(dst))
	for c := range seeds {
		seeds[c] = core.ChainSeed(seed, uint64(lo+c))
	}
	start := time.Now()
	blk.Reset(d.init, seeds)
	blk.Abort = abort
	blk.Run(d.rounds)
	blk.Abort = nil
	blk.Scatter(dst)
	d.soaPool.Put(blk)
	d.observeDraws(start, len(dst))
}

// fanOut runs work(i) for every i in [0, items) on at most `workers`
// goroutines (inline when one suffices) that claim items in order. Once
// any item fails, no worker claims another — the pool does not drain a
// queue whose batch is already doomed. A canceled ctx flips the abort flag
// work hands its chains, stops the claims, and wins over whatever
// secondary errors the abort provoked.
func fanOut(ctx context.Context, workers, items int, work func(i int, abort *atomic.Bool) error) error {
	var (
		next    atomic.Int64
		abort   atomic.Bool
		failed  atomic.Bool
		errOnce sync.Once
		runErr  error
	)
	defer ctxWatch(ctx, func() { abort.Store(true) })()
	claim := func() {
		for !abort.Load() && !failed.Load() {
			i := int(next.Add(1)) - 1
			if i >= items {
				return
			}
			if err := work(i, &abort); err != nil {
				errOnce.Do(func() { runErr = err })
				failed.Store(true)
				return
			}
		}
	}
	if workers = batchWorkers(workers, items); workers <= 1 {
		claim()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				claim()
			}()
		}
		wg.Wait()
	}
	if cerr := ctxErr(ctx); cerr != nil {
		return cerr
	}
	return runErr
}

// ctxWatch arms f to run on ctx cancellation; the returned stop
// releases the watcher. A nil or non-cancelable ctx arms nothing.
func ctxWatch(ctx context.Context, f func()) func() bool {
	if ctx == nil || ctx.Done() == nil {
		return func() bool { return true }
	}
	return context.AfterFunc(ctx, f)
}

// soaBatchable reports whether alg has an SoA batch kernel (the round
// shapes with marginal/propose/filter phases; the scan and chromatic
// baselines stay per-chain). CSP draws run LubyGlauber, which batches.
func soaBatchable(alg chains.Algorithm) bool {
	return alg == chains.Glauber || alg == chains.LubyGlauber || alg == chains.LocalMetropolis
}

// soaWidths are the block widths the auto-picker considers, widest first.
var soaWidths = [...]int{64, 32, 16, 8}

// batchWidth resolves the SoA lane width for a k-chain batch under a
// worker budget. explicit is Config.BatchWidth: 1 forces the per-chain
// path, w ≥ 2 pins the width (honored whenever the batch has at least w
// chains), 0 auto-picks the widest block that still cuts the batch into
// at least `workers` blocks — wider blocks amortize the CSR walk harder,
// but a batch with fewer blocks than workers would idle cores. Returns 0
// for "run per-chain".
func batchWidth(explicit, k, workers int) int {
	if explicit == 1 {
		return 0
	}
	if explicit >= 2 {
		if k >= explicit {
			return explicit
		}
		return 0
	}
	for _, w := range soaWidths {
		if k >= w && (k+w-1)/w >= workers {
			return w
		}
	}
	if k >= soaWidths[len(soaWidths)-1] {
		// Fewer blocks than workers at every width: take the narrowest
		// block rather than falling back to per-chain — lane amortization
		// beats perfect occupancy once a block fills.
		return soaWidths[len(soaWidths)-1]
	}
	return 0
}

// batchWorkers clamps the worker pool to the number of claimable work
// items — chains on the per-chain path, blocks on the SoA path — so a
// small batch never spins goroutines that could not claim work. Pinned
// by TestSampleNWorkerPoolClamped.
func batchWorkers(workers, items int) int {
	if workers > items {
		return items
	}
	return workers
}

// newDrawMetrics registers the sampler-level series under the given
// engine label ("mrf" | "csp"). A nil registry disables them all.
func newDrawMetrics(reg *obs.Registry, engine string) (draws *obs.Counter, drawNS *obs.Histogram, rounds *obs.RoundMetrics) {
	if reg == nil {
		return nil, nil, nil
	}
	draws = reg.Counter("locsample_draws_total", "completed sampler draws", "engine", engine)
	drawNS = reg.Histogram("locsample_draw_seconds", "end-to-end draw latency", 1e-9, "engine", engine)
	rounds = &obs.RoundMetrics{
		ComputeNS: reg.Histogram("locsample_round_compute_seconds", "per-round kernel time", 1e-9, "engine", engine),
		BarrierNS: reg.Histogram("locsample_round_barrier_seconds", "per-round barrier/exchange wait", 1e-9, "engine", engine),
		Flips:     reg.Counter("locsample_round_flips_total", "accepted per-round vertex updates", "engine", engine),
		Rounds:    reg.Counter("locsample_rounds_total", "chain rounds executed", "engine", engine),
	}
	return draws, drawNS, rounds
}
