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
	"locsample/internal/csp"
	"locsample/internal/diag"
	"locsample/internal/dist"
	"locsample/internal/localmodel"
	"locsample/internal/obs"
	"locsample/internal/partition"
)

// CSPModel is a weighted local CSP (factor graph, §2.2 of the paper):
// constraints (f_c, S_c) with per-vertex activities. It generalizes Model
// to multivariate constraints; both of the paper's chains extend to it
// (§3 and §4 remarks).
type CSPModel = csp.CSP

// CSPConstraint is one weighted constraint: a scope and a non-negative
// function over it.
type CSPConstraint = csp.Constraint

// NewDominatingSet returns the uniform distribution over dominating sets of
// g as a CSP (one cover constraint per inclusive neighborhood).
func NewDominatingSet(g *Graph) *CSPModel { return csp.DominatingSet(g) }

// NewWeightedDominatingSet weights dominating sets by λ^|S|.
func NewWeightedDominatingSet(g *Graph, lambda float64) *CSPModel {
	return csp.WeightedDominatingSet(g, lambda)
}

// NewCSP assembles a custom weighted local CSP; see csp.New for validation
// rules (constraint arities are enumerated to normalize — and compile — the
// factors, so keep them small).
func NewCSP(n, q int, vertexActivities [][]float64, cons []CSPConstraint) (*CSPModel, error) {
	return csp.New(n, q, vertexActivities, cons)
}

// CSPSampler is the compiled CSP batch engine — the CSP counterpart of
// Sampler. NewCSPSampler resolves the run parameters once (round budget,
// feasibility of the initial configuration, and, with WithShards, the
// constraint-scope partition plan); draws then reuse pooled chain scratch
// (or pooled sharded engines), so steady-state rounds allocate nothing.
//
// Determinism contract: chain i of SampleNFrom(seed, k) is bit-identical to
// a single SampleCSP draw with seed ChainSeed(seed, i), regardless of
// worker count, scheduling, shard count, partition strategy, or
// vertex-parallel worker count — WithShards and WithParallelRounds are
// purely latency knobs.
type CSPSampler struct {
	g      *Graph
	c      *CSPModel
	init   []int
	cfg    core.Config
	rounds int
	// capRounds is the worst-case budget a WithRoundsAuto measurement was
	// capped by (0 when the budget is fixed).
	capRounds int

	plan    *partition.CSPPlan
	engines sync.Pool // *cluster.Engine, sharded mode
	scratch sync.Pool // *csp.Scratch, centralized mode
	// soaPool pools SoA batch blocks across SampleNFrom calls, grow-only
	// on width (see Sampler.soaPool).
	soaPool sync.Pool
	// remote is the cross-process coordinator (nil unless WithRemoteWorkers
	// placed the shards on lsharded processes).
	remote *remoteEngine

	// Metric series (nil without WithMetrics); see Sampler.
	mDraws   *obs.Counter
	mDrawNS  *obs.Histogram
	roundObs *obs.RoundMetrics
}

// NewCSPSampler compiles CSP c on network g with the given options into a
// reusable batch sampler. init must be feasible and WithRounds must supply
// a positive budget (CSPs have no theory budget). Honored options:
// WithRounds, WithSeed, WithWorkers, WithShards, WithShardStrategy,
// WithParallelRounds; Distributed draws go through SampleCSP instead.
func NewCSPSampler(g *Graph, c *CSPModel, init []int, opts ...Option) (*CSPSampler, error) {
	cfg := core.Config{Algorithm: chains.LubyGlauber}
	for _, opt := range opts {
		opt(&cfg)
	}
	if g != nil && g.N() != c.N {
		return nil, fmt.Errorf("locsample: CSP has %d vertices, network %d", c.N, g.N())
	}
	if cfg.Distributed {
		return nil, fmt.Errorf("locsample: the batch CSP sampler runs the centralized replay; use SampleCSP(..., distributed=true) for the LOCAL-model runtime")
	}
	cfg.Init = init
	rounds, err := core.CompileCSP(c, cfg)
	if err != nil {
		return nil, err
	}
	s := &CSPSampler{
		g:      g,
		c:      c,
		init:   append([]int(nil), init...),
		cfg:    cfg,
		rounds: rounds,
	}
	if cfg.RoundsAuto {
		// Measure the budget once at compile time: run a grand coupling
		// under the draw seed and stop at coalescence, capped by the
		// explicit budget. Draws then run the measured round count, so
		// they stay bit-identical to WithRounds(measured).
		d, err := diag.NewCoupledCSP(c, s.init, cfg.Seed,
			diag.Options{Chains: cfg.Coupling, MaxRounds: rounds})
		if err != nil {
			return nil, err
		}
		s.capRounds = rounds
		s.rounds = d.RunToCoalescence()
	}
	s.mDraws, s.mDrawNS, s.roundObs = newDrawMetrics(cfg.Obs, "csp")
	s.scratch.New = func() any { return csp.NewScratch(c) }
	if cfg.Shards > 1 {
		plan, err := partition.BuildCSP(c, cfg.Shards, cfg.ShardStrategy, cfg.Seed)
		if err != nil {
			return nil, err
		}
		s.plan = plan
		if len(cfg.WorkerAddrs) > 0 {
			sp := cfg.ModelSpec
			if sp == nil {
				sp, err = NewSpecFromCSP(g, c, s.init, rounds, "remote")
				if err != nil {
					return nil, fmt.Errorf("locsample: remote draws ship the CSP as a spec: %w", err)
				}
			}
			s.remote, err = newRemoteEngine(remoteJob{
				kind:     "csp",
				spec:     sp,
				shards:   cfg.Shards,
				strategy: cfg.ShardStrategy.String(),
				planSeed: cfg.Seed,
				init:     s.init,
				addrs:    cfg.WorkerAddrs,
			}, cspOwned(plan), c.N, resolveRetry(&cfg), cfg.StandbyAddrs)
			if err != nil {
				return nil, err
			}
			s.remote.setObs(cfg.Obs, cfg.Log)
			return s, nil
		}
		newEngine := func() (*cluster.Engine, error) {
			var eng *cluster.Engine
			var err error
			if cfg.Transport != nil {
				local := make([]int, plan.K)
				for i := range local {
					local[i] = i
				}
				eng, err = cluster.NewCSPWithTransport(c, plan, chains.LubyGlauber,
					local, cfg.Transport(plan.NeighborLists()))
			} else {
				eng, err = cluster.NewCSP(c, plan, chains.LubyGlauber)
			}
			if err == nil && s.roundObs != nil {
				eng.SetObserver(s.roundObs)
			}
			return eng, err
		}
		eng, err := newEngine()
		if err != nil {
			return nil, err
		}
		s.engines.New = func() any {
			e, err := newEngine()
			if err != nil {
				// Unreachable: the eager construction above vetted the
				// same arguments.
				panic(err)
			}
			return e
		}
		s.engines.Put(eng)
	}
	return s, nil
}

// Close releases the sampler's external resources — the coordinator's
// control connections when draws run on remote workers. Purely local
// samplers hold nothing that needs closing; Close is safe either way.
func (s *CSPSampler) Close() error {
	if s.remote != nil {
		return s.remote.Close()
	}
	return nil
}

// Rounds returns the per-chain round budget the sampler resolved.
func (s *CSPSampler) Rounds() int { return s.rounds }

// CapRounds returns the worst-case budget a WithRoundsAuto measurement
// was capped by, or 0 when the budget is fixed (no measurement ran).
func (s *CSPSampler) CapRounds() int { return s.capRounds }

// Shards returns the shard count draws run with (1 when unsharded).
func (s *CSPSampler) Shards() int {
	if s.plan == nil {
		return 1
	}
	return s.plan.K
}

// ParallelRounds returns the vertex-parallel worker count each chain's
// rounds run with (1 when rounds are sequential).
func (s *CSPSampler) ParallelRounds() int {
	if s.cfg.Parallel > 1 {
		return s.cfg.Parallel
	}
	return 1
}

// CSPBatch is the result of a CSP batch draw.
type CSPBatch struct {
	// Samples[i] is chain i's output configuration; all samples share one
	// flat backing array.
	Samples [][]int
	// Rounds is the number of chain iterations each chain executed.
	Rounds int
	// Shard aggregates the sharded runtime's profile across all chains
	// (zero for unsharded batches).
	Shard ShardStats
	// SoAWidth is the lane width of the SoA block engine the batch ran
	// through (0 when chains ran the per-chain reference path). Purely
	// informational: the samples are bit-identical either way.
	SoAWidth int
}

// runChain advances one centralized chain in place: sequential kernels, or
// vertex-parallel round phases when WithParallelRounds is set. A non-nil
// abort is polled between rounds (the cancellation seam — one atomic load
// per round); the caller decides what a stopped chain means.
func (s *CSPSampler) runChain(x []int, seed uint64, sc *csp.Scratch, abort *atomic.Bool) {
	if s.roundObs != nil {
		s.runChainObserved(x, seed, sc, s.roundObs, abort)
		return
	}
	if s.cfg.Parallel > 1 {
		for r := 0; r < s.rounds; r++ {
			if abort != nil && abort.Load() {
				return
			}
			csp.LubyGlauberRoundParallel(s.c, x, seed, r, sc, s.cfg.Parallel)
		}
		return
	}
	for r := 0; r < s.rounds; r++ {
		if abort != nil && abort.Load() {
			return
		}
		csp.LubyGlauberRoundPRF(s.c, x, seed, r, sc)
	}
}

// runChainObserved is runChain with a per-round observer: identical
// trajectory (the observer never touches the chain's randomness), two
// extra clock reads per round, zero allocations.
func (s *CSPSampler) runChainObserved(x []int, seed uint64, sc *csp.Scratch, o chains.RoundObserver, abort *atomic.Bool) {
	for r := 0; r < s.rounds; r++ {
		if abort != nil && abort.Load() {
			return
		}
		t0 := time.Now()
		if s.cfg.Parallel > 1 {
			csp.LubyGlauberRoundParallel(s.c, x, seed, r, sc, s.cfg.Parallel)
		} else {
			csp.LubyGlauberRoundPRF(s.c, x, seed, r, sc)
		}
		o.RoundDone(0, r, time.Since(t0).Nanoseconds(), 0, -1)
	}
}

// observeDraw meters one completed draw (no-op without WithMetrics).
func (s *CSPSampler) observeDraw(start time.Time) {
	if s.mDraws == nil {
		return
	}
	s.mDraws.Inc()
	s.mDrawNS.Observe(time.Since(start).Nanoseconds())
}

// Sample draws one configuration with the compiled settings and the master
// seed, exactly as the package-level SampleCSP would.
func (s *CSPSampler) Sample() ([]int, *ShardStats, error) {
	return s.SampleContext(context.Background())
}

// SampleContext is Sample under a context: a canceled ctx aborts the
// draw (coordinator connections are closed, sharded engines torn down,
// centralized chains stop at the next round boundary) and returns
// ctx.Err(). Cancellation never yields a partial sample.
func (s *CSPSampler) SampleContext(ctx context.Context) ([]int, *ShardStats, error) {
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, nil, err
	}
	out := make([]int, s.c.N)
	if s.remote != nil {
		st, err := s.remote.draw(ctx, s.cfg.Seed, s.rounds, out, nil)
		if err != nil {
			return nil, nil, err
		}
		s.observeDraw(start)
		return out, &st, nil
	}
	if s.plan != nil {
		eng := s.engines.Get().(*cluster.Engine)
		// Cancellation closes the engine's transport: the lockstep
		// workers fail their next exchange and Run returns. The closed
		// engine is discarded, never re-pooled.
		stop := ctxWatch(ctx, func() { eng.Close() })
		st, err := eng.Run(s.init, s.cfg.Seed, s.rounds, out)
		stop()
		if cerr := ctxErr(ctx); cerr != nil {
			eng.Close()
			return nil, nil, cerr
		}
		if err != nil {
			// A failed engine is poisoned (its transport is closed); it
			// must not go back in the pool.
			eng.Close()
			return nil, nil, err
		}
		s.engines.Put(eng)
		s.observeDraw(start)
		return out, &st, nil
	}
	sc := s.scratch.Get().(*csp.Scratch)
	copy(out, s.init)
	var abort atomic.Bool
	stop := ctxWatch(ctx, func() { abort.Store(true) })
	s.runChain(out, s.cfg.Seed, sc, &abort)
	stop()
	s.scratch.Put(sc)
	if cerr := ctxErr(ctx); cerr != nil {
		return nil, nil, cerr
	}
	s.observeDraw(start)
	return out, nil, nil
}

// SampleTraced draws one configuration exactly like Sample while
// recording a timing trace; see Sampler.SampleTraced for the span
// layout. The sample is bit-identical to an untraced draw.
func (s *CSPSampler) SampleTraced() ([]int, *ShardStats, *Trace, error) {
	return s.SampleTracedFrom(s.cfg.Seed)
}

// SampleTracedFrom is SampleTraced with an explicit seed.
func (s *CSPSampler) SampleTracedFrom(seed uint64) ([]int, *ShardStats, *Trace, error) {
	return s.SampleTracedContext(context.Background(), seed)
}

// SampleTracedContext is SampleTracedFrom under a context; a canceled
// ctx aborts the draw exactly as in SampleContext and returns
// ctx.Err().
func (s *CSPSampler) SampleTracedContext(ctx context.Context, seed uint64) ([]int, *ShardStats, *Trace, error) {
	start := time.Now()
	if err := ctxErr(ctx); err != nil {
		return nil, nil, nil, err
	}
	tr := obs.NewTrace("csp draw")
	t0 := tr.Now()
	out := make([]int, s.c.N)
	if s.remote != nil {
		st, err := s.remote.draw(ctx, seed, s.rounds, out, tr)
		if err != nil {
			return nil, nil, nil, err
		}
		s.observeDraw(start)
		return out, &st, tr, nil
	}
	if s.plan != nil {
		eng := s.engines.Get().(*cluster.Engine)
		rec := obs.NewRoundRecorder(s.plan.K, s.rounds)
		eng.SetObserver(&obs.TeeRounds{A: rec, B: s.roundObs})
		stop := ctxWatch(ctx, func() { eng.Close() })
		st, err := eng.Run(s.init, seed, s.rounds, out)
		stop()
		eng.SetObserver(s.engineObserver())
		if cerr := ctxErr(ctx); cerr != nil {
			eng.Close()
			return nil, nil, nil, cerr
		}
		if err != nil {
			eng.Close()
			return nil, nil, nil, err
		}
		s.engines.Put(eng)
		rec.FlushTo(tr, 0)
		s.addDrawSpan(tr, t0, seed, s.plan.K)
		s.observeDraw(start)
		return out, &st, tr, nil
	}
	sc := s.scratch.Get().(*csp.Scratch)
	rec := obs.NewRoundRecorder(1, s.rounds)
	copy(out, s.init)
	var abort atomic.Bool
	stop := ctxWatch(ctx, func() { abort.Store(true) })
	s.runChainObserved(out, seed, sc, &obs.TeeRounds{A: rec, B: s.roundObs}, &abort)
	stop()
	s.scratch.Put(sc)
	if cerr := ctxErr(ctx); cerr != nil {
		return nil, nil, nil, cerr
	}
	rec.FlushTo(tr, 0)
	s.addDrawSpan(tr, t0, seed, 1)
	s.observeDraw(start)
	return out, nil, tr, nil
}

// SampleDiagnosed draws one configuration exactly like Sample while
// running a grand coupling alongside it; see Sampler.SampleDiagnosed for
// the contract. The sample is bit-identical to an undiagnosed draw at
// the same seed. Diagnosed CSP draws run centralized and sequential.
func (s *CSPSampler) SampleDiagnosed() ([]int, *Diagnosis, error) {
	return s.sampleDiagnosed(s.cfg.Seed, nil)
}

// SampleDiagnosedFrom is SampleDiagnosed with an explicit master seed.
func (s *CSPSampler) SampleDiagnosedFrom(seed uint64) ([]int, *Diagnosis, error) {
	return s.sampleDiagnosed(seed, nil)
}

// SampleDiagnosedObserved is SampleDiagnosedFrom with a per-round probe —
// the live-streaming seam. The probe runs on the round hot path; see
// CouplingProbe for the contract.
func (s *CSPSampler) SampleDiagnosedObserved(seed uint64, probe CouplingProbe) ([]int, *Diagnosis, error) {
	return s.sampleDiagnosed(seed, probe)
}

func (s *CSPSampler) sampleDiagnosed(seed uint64, probe diag.Probe) ([]int, *Diagnosis, error) {
	start := time.Now()
	d, err := diag.NewCoupledCSP(s.c, s.init, seed,
		diag.Options{Chains: s.cfg.Coupling, MaxRounds: s.rounds, Probe: probe, Obs: s.engineObserver()})
	if err != nil {
		return nil, nil, err
	}
	d.Run(s.rounds)
	out := append([]int(nil), d.X()...)
	s.observeDraw(start)
	return out, d.Finish(), nil
}

// engineObserver is the observer pooled engines idle with (nil unless
// WithMetrics attached round metrics).
func (s *CSPSampler) engineObserver() chains.RoundObserver {
	if s.roundObs != nil {
		return s.roundObs
	}
	return nil
}

// addDrawSpan closes a traced local draw with its draw-level span.
func (s *CSPSampler) addDrawSpan(tr *obs.Trace, t0 int64, seed uint64, shards int) {
	span := obs.Span{Name: "draw", PID: 0, TID: 0, StartNS: t0, DurNS: tr.Now() - t0}
	span.SetArg("seed", int64(seed))
	span.SetArg("rounds", int64(s.rounds))
	span.SetArg("shards", int64(shards))
	tr.Add(span)
}

// SampleN draws k independent samples concurrently with the compiled master
// seed; see SampleNFrom.
func (s *CSPSampler) SampleN(k int) (*CSPBatch, error) {
	return s.SampleNFrom(s.cfg.Seed, k)
}

// SampleNFrom draws k independent samples concurrently; chain i runs with
// seed ChainSeed(seed, i). It does not mutate the sampler, so concurrent
// calls (the serving path) are safe.
func (s *CSPSampler) SampleNFrom(seed uint64, k int) (*CSPBatch, error) {
	return s.SampleNContext(context.Background(), seed, k)
}

// SampleNContext is SampleNFrom under a context: a canceled ctx stops
// workers from claiming further chains, aborts in-flight ones (sharded
// engines are closed and discarded; centralized chains stop at the next
// round boundary), and returns ctx.Err(). A canceled batch never
// returns partial samples.
func (s *CSPSampler) SampleNContext(ctx context.Context, seed uint64, k int) (*CSPBatch, error) {
	if k < 0 {
		return nil, fmt.Errorf("locsample: SampleN needs k >= 0, got %d", k)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	batch := &CSPBatch{Samples: make([][]int, k), Rounds: s.rounds}
	if k == 0 {
		return batch, nil
	}
	n := s.c.N
	backing := make([]int, k*n)
	for i := 0; i < k; i++ {
		batch.Samples[i] = backing[i*n : (i+1)*n : (i+1)*n]
	}
	if s.remote != nil {
		// Remote draws serialize on the coordinator's control connections;
		// each chain already fans out across the worker processes.
		for i := 0; i < k; i++ {
			chainStart := time.Now()
			st, err := s.remote.draw(ctx, core.ChainSeed(seed, uint64(i)), s.rounds, batch.Samples[i], nil)
			if err != nil {
				return nil, err
			}
			batch.Shard.Add(st)
			s.observeDraw(chainStart)
		}
		return batch, nil
	}
	workers := s.cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if s.plan != nil {
			// Each chain already runs plan.K goroutines; dividing the pool
			// keeps total parallelism near GOMAXPROCS.
			workers = max(1, workers/s.plan.K)
		} else if s.cfg.Parallel > 1 {
			workers = max(1, workers/s.cfg.Parallel)
		}
	}
	if s.plan == nil && s.cfg.Parallel <= 1 {
		if width := batchWidth(s.cfg.BatchWidth, k, workers); width > 0 {
			return s.sampleNSoA(ctx, seed, k, width, workers, batch)
		}
	}
	workers = batchWorkers(workers, k)
	var shardStats []ShardStats
	if s.plan != nil {
		shardStats = make([]ShardStats, k)
	}
	var (
		next    atomic.Int64
		wg      sync.WaitGroup
		errOnce sync.Once
		runErr  error
		aborted atomic.Bool
	)
	// One shared abort flag serves both the claim loop (no worker takes
	// another chain) and the centralized chains (stop at the next round
	// boundary); sharded workers additionally close their engines so
	// in-flight lockstep rounds unblock.
	var chainAbort atomic.Bool
	stopWatch := ctxWatch(ctx, func() {
		aborted.Store(true)
		chainAbort.Store(true)
	})
	defer stopWatch()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc *csp.Scratch
			var eng *cluster.Engine
			engDead := false
			if s.plan != nil {
				eng = s.engines.Get().(*cluster.Engine)
				stopEng := ctxWatch(ctx, func() { eng.Close() })
				// A failed engine is poisoned (transport closed) and must
				// not be re-pooled for the next batch; neither may one a
				// cancellation closed (or is about to close).
				defer func() {
					stopEng()
					if engDead || ctxErr(ctx) != nil {
						eng.Close()
					} else {
						s.engines.Put(eng)
					}
				}()
			} else {
				sc = s.scratch.Get().(*csp.Scratch)
				defer s.scratch.Put(sc)
			}
			for {
				// Fail fast: once any chain errors, no worker claims
				// another chain.
				if aborted.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= k {
					return
				}
				chainSeed := core.ChainSeed(seed, uint64(i))
				chainStart := time.Now()
				if eng != nil {
					st, err := eng.Run(s.init, chainSeed, s.rounds, batch.Samples[i])
					if err != nil {
						engDead = true
						errOnce.Do(func() { runErr = err })
						aborted.Store(true)
						return
					}
					shardStats[i] = st
					s.observeDraw(chainStart)
					continue
				}
				x := batch.Samples[i]
				copy(x, s.init)
				s.runChain(x, chainSeed, sc, &chainAbort)
				s.observeDraw(chainStart)
			}
		}()
	}
	wg.Wait()
	if cerr := ctxErr(ctx); cerr != nil {
		// Cancellation wins over whatever secondary errors closing the
		// engines provoked — the caller asked for the abort it got.
		return nil, cerr
	}
	if runErr != nil {
		return nil, runErr
	}
	for _, st := range shardStats {
		batch.Shard.Add(st)
	}
	return batch, nil
}

// getSoABlock borrows a pooled SoA block at least `width` lanes wide,
// building one when the pool is empty or its block is too narrow.
func (s *CSPSampler) getSoABlock(width int) *csp.SoABlock {
	if b, _ := s.soaPool.Get().(*csp.SoABlock); b != nil && b.MaxWidth() >= width {
		return b
	}
	return csp.NewSoABlock(s.c, width)
}

// runBlock advances an SoA block by the compiled budget — the block
// counterpart of runChain: same abort polling at round boundaries, same
// per-round observation (one RoundDone per block round).
func (s *CSPSampler) runBlock(blk *csp.SoABlock, abort *atomic.Bool) {
	if s.roundObs != nil {
		for r := 0; r < s.rounds; r++ {
			if abort.Load() {
				return
			}
			t0 := time.Now()
			blk.Step()
			s.roundObs.RoundDone(0, r, time.Since(t0).Nanoseconds(), 0, -1)
		}
		return
	}
	for r := 0; r < s.rounds; r++ {
		if abort.Load() {
			return
		}
		blk.Step()
	}
}

// sampleNSoA runs a centralized CSP batch through the SoA block engine —
// the CSP counterpart of Sampler.sampleNSoA: ceil(k/width) lockstep
// blocks claimed by a pool clamped to the block count, the tail block
// running with its natural lane count. Chain i's lane is bit-identical
// to the per-chain path at ChainSeed(seed, i).
func (s *CSPSampler) sampleNSoA(ctx context.Context, seed uint64, k, width, workers int, batch *CSPBatch) (*CSPBatch, error) {
	batch.SoAWidth = width
	blocks := (k + width - 1) / width
	workers = batchWorkers(workers, blocks)
	var (
		next       atomic.Int64
		wg         sync.WaitGroup
		chainAbort atomic.Bool
	)
	stopWatch := ctxWatch(ctx, func() { chainAbort.Store(true) })
	defer stopWatch()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			blk := s.getSoABlock(width)
			defer s.soaPool.Put(blk)
			seeds := make([]uint64, width)
			for {
				if chainAbort.Load() {
					return
				}
				bi := int(next.Add(1)) - 1
				if bi >= blocks {
					return
				}
				lo := bi * width
				lanes := min(width, k-lo)
				for c := 0; c < lanes; c++ {
					seeds[c] = core.ChainSeed(seed, uint64(lo+c))
				}
				blockStart := time.Now()
				blk.Reset(s.init, seeds[:lanes])
				s.runBlock(blk, &chainAbort)
				blk.Scatter(batch.Samples[lo : lo+lanes])
				s.observeDrawN(blockStart, lanes)
			}
		}()
	}
	wg.Wait()
	if cerr := ctxErr(ctx); cerr != nil {
		return nil, cerr
	}
	return batch, nil
}

// observeDrawN meters `lanes` draws that completed together as one SoA
// block (see Sampler.observeDrawN).
func (s *CSPSampler) observeDrawN(start time.Time, lanes int) {
	if s.mDraws == nil {
		return
	}
	s.mDraws.Add(int64(lanes))
	s.mDrawNS.Observe(time.Since(start).Nanoseconds())
}

// SampleCSP draws one configuration approximately distributed as the CSP's
// Gibbs distribution using the hypergraph LubyGlauber chain (§3 remark).
// When distributed is true the chain runs as a LOCAL protocol on network g
// (two communication rounds per chain iteration; constraints must have
// scope radius ≤ 1 on g, as cover constraints do). init must be feasible;
// rounds > 0 is required (no general theory budget exists for arbitrary
// CSPs). Options may select an in-chain runtime — WithShards(k) runs the
// chain as k lockstep shard workers over a constraint-scope partition,
// WithParallelRounds(n) fans each round's phases over n goroutines — both
// bit-identical to the sequential chain at the same seed, and both
// exclusive with distributed mode.
func SampleCSP(g *Graph, c *CSPModel, init []int, rounds int, seed uint64, distributed bool, opts ...Option) ([]int, Stats, error) {
	if rounds <= 0 {
		return nil, Stats{}, fmt.Errorf("locsample: SampleCSP needs rounds > 0")
	}
	cfg := core.Config{Algorithm: chains.LubyGlauber, Rounds: rounds, Seed: seed, Init: init}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Algorithm, cfg.Rounds, cfg.Seed, cfg.Init = chains.LubyGlauber, rounds, seed, init
	cfg.Distributed = cfg.Distributed || distributed
	if cfg.Distributed {
		// The sampler path below validates through NewCSPSampler; the
		// distributed path validates here (runtime exclusivity included).
		if _, err := core.CompileCSP(c, cfg); err != nil {
			return nil, Stats{}, err
		}
		return dist.RunCSPLubyGlauber(g, c, init, seed, rounds)
	}
	s, err := newCSPSamplerFromConfig(g, c, init, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	out, _, err := s.Sample()
	if err != nil {
		return nil, Stats{}, err
	}
	return out, localmodel.Stats{Rounds: rounds}, nil
}

// newCSPSamplerFromConfig builds a CSPSampler from an already-resolved
// Config (the option closures have run).
func newCSPSamplerFromConfig(g *Graph, c *CSPModel, init []int, cfg core.Config) (*CSPSampler, error) {
	opts := []Option{WithRounds(cfg.Rounds), WithSeed(cfg.Seed)}
	if cfg.Workers > 0 {
		opts = append(opts, WithWorkers(cfg.Workers))
	}
	if cfg.Shards > 1 {
		opts = append(opts, WithShards(cfg.Shards), WithShardStrategy(cfg.ShardStrategy))
	}
	if cfg.Parallel > 1 {
		opts = append(opts, WithParallelRounds(cfg.Parallel))
	}
	if cfg.BatchWidth != 0 {
		opts = append(opts, WithBatchWidth(cfg.BatchWidth))
	}
	if cfg.RoundsAuto {
		opts = append(opts, WithRoundsAuto())
	}
	if cfg.Coupling != 0 {
		opts = append(opts, WithCoupling(cfg.Coupling))
	}
	return NewCSPSampler(g, c, init, opts...)
}

// SampleCSPN draws k independent CSP samples over a worker pool — the CSP
// counterpart of Sampler.SampleN, with the same determinism contract:
// chain i is bit-identical to SampleCSP(g, c, init, rounds, ChainSeed(seed,
// i), false), regardless of k, worker count, or scheduling. Feasibility of
// init is validated once; workers <= 0 means GOMAXPROCS. All samples share
// one flat backing array, and each worker reuses one chain scratch, so the
// steady-state inner loops allocate nothing. Options as in SampleCSP
// (WithShards / WithParallelRounds; distributed batches are not supported).
func SampleCSPN(g *Graph, c *CSPModel, init []int, rounds int, seed uint64, k, workers int, opts ...Option) ([][]int, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("locsample: SampleCSPN needs rounds > 0")
	}
	if k < 0 {
		return nil, fmt.Errorf("locsample: SampleCSPN needs k >= 0, got %d", k)
	}
	cfg := core.Config{Algorithm: chains.LubyGlauber, Rounds: rounds, Seed: seed, Init: init, Workers: workers}
	for _, opt := range opts {
		opt(&cfg)
	}
	cfg.Algorithm, cfg.Rounds, cfg.Seed, cfg.Init = chains.LubyGlauber, rounds, seed, init
	if workers > 0 {
		cfg.Workers = workers
	}
	if cfg.Distributed {
		return nil, fmt.Errorf("locsample: SampleCSPN runs the centralized replay; Distributed batches are not supported")
	}
	s, err := newCSPSamplerFromConfig(g, c, init, cfg)
	if err != nil {
		return nil, err
	}
	batch, err := s.SampleNFrom(seed, k)
	if err != nil {
		return nil, err
	}
	return batch.Samples, nil
}
