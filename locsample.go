// Package locsample is a Go implementation of the distributed sampling
// algorithms of Feng, Sun and Yin, "What can be sampled locally?"
// (PODC 2017, arXiv:1702.00142): Markov-chain samplers for Gibbs
// distributions of Markov random fields — proper colorings, the hardcore
// model, Ising/Potts, and general weighted local CSPs — that run in
// Linial's LOCAL model of distributed computation.
//
// Two algorithms are provided, plus classical baselines:
//
//   - LubyGlauber (Algorithm 1): parallelizes single-site Glauber dynamics
//     by resampling a random "Luby step" independent set each round; mixes
//     in O(Δ·log(n/ε)) rounds under Dobrushin's condition (Theorem 3.2).
//   - LocalMetropolis (Algorithm 2): updates every vertex simultaneously
//     with per-edge filtering; for proper q-colorings with q ≥ α·Δ,
//     α > 2+√2, it mixes in O(log(n/ε)) rounds independent of Δ
//     (Theorem 4.2).
//
// A one-shot Sample (or SampleCSP) can also run its chain as a genuine
// message-passing protocol on the bundled LOCAL-model simulator
// (goroutine per node, synchronized rounds, message-size accounting) —
// the paper's model of computation, kept for reproducing it; the two
// modes produce identical trajectories for identical seeds.
//
// Quick start:
//
//	g := locsample.GridGraph(16, 16)
//	model := locsample.NewColoring(g, 3*g.MaxDeg())
//	res, err := locsample.Sample(model,
//	    locsample.WithAlgorithm(locsample.LocalMetropolis),
//	    locsample.WithEpsilon(0.01),
//	    locsample.WithSeed(42),
//	    locsample.Distributed())
//
// For serving workloads that need many draws, compile the model once with
// NewSampler (or NewCSPSampler for weighted local CSPs) and call Draw —
// the one draw method of a compiled sampler — which spreads independent
// chains over a worker pool with allocation-free inner loops; chain i of a
// draw with seed s is bit-identical to Sample with seed ChainSeed(s, i).
// The same call traces a draw or runs it under a mixing diagnosis:
//
//	s, err := locsample.NewSampler(model)
//	batch, err := s.Draw(ctx, locsample.DrawRequest{Seed: 42, K: 1024})
//	one, err := s.Draw(ctx, locsample.DrawRequest{Seed: 42, K: 1, Trace: true})
//
// Both samplers share one compiled-draw core; they differ only in the
// chain they run.
//
// The internal packages additionally reproduce the paper's lower bounds
// (Theorems 5.1 and 5.2) and coupling analyses as executable experiments;
// see DESIGN.md and EXPERIMENTS.md, and run cmd/lsexp to regenerate every
// experiment table.
package locsample

import (
	"context"
	"log/slog"

	"locsample/internal/chains"
	"locsample/internal/core"
	"locsample/internal/diag"
	"locsample/internal/dist"
	"locsample/internal/graph"
	"locsample/internal/localmodel"
	"locsample/internal/mrf"
	"locsample/internal/obs"
	"locsample/internal/rng"
	"locsample/internal/transport"
)

// Graph is an immutable undirected multigraph; build one with NewGraphBuilder
// or the *Graph generator functions.
type Graph = graph.Graph

// GraphBuilder accumulates edges and produces a Graph.
type GraphBuilder = graph.Builder

// Model is a Markov random field: a graph with per-edge activity matrices
// and per-vertex activity vectors defining a Gibbs distribution (Eq. 1 of
// the paper).
type Model = mrf.MRF

// Activity is a symmetric non-negative q×q edge activity matrix.
type Activity = mrf.Mat

// Algorithm selects a sampling chain.
type Algorithm = chains.Algorithm

// Stats reports a distributed run's communication profile.
type Stats = localmodel.Stats

// Result is a sample plus its provenance.
type Result = core.Result

// Available algorithms.
const (
	// Glauber is the sequential single-site baseline (one vertex per step).
	Glauber = chains.Glauber
	// LubyGlauber is Algorithm 1 of the paper.
	LubyGlauber = chains.LubyGlauber
	// LocalMetropolis is Algorithm 2 of the paper.
	LocalMetropolis = chains.LocalMetropolis
	// SystematicScan is the fixed-order scan baseline.
	SystematicScan = chains.SystematicScan
	// ChromaticGlauber is the chromatic-scheduler baseline of [GLGG11].
	ChromaticGlauber = chains.ChromaticGlauber
)

// NewGraphBuilder returns a builder for a graph on n vertices.
func NewGraphBuilder(n int) *GraphBuilder { return graph.NewBuilder(n) }

// PathGraph returns the path on n vertices.
func PathGraph(n int) *Graph { return graph.Path(n) }

// CycleGraph returns the cycle on n ≥ 3 vertices.
func CycleGraph(n int) *Graph { return graph.Cycle(n) }

// GridGraph returns the r×c grid.
func GridGraph(r, c int) *Graph { return graph.Grid(r, c) }

// TorusGraph returns the r×c torus (4-regular for r, c ≥ 3).
func TorusGraph(r, c int) *Graph { return graph.Torus(r, c) }

// CompleteGraph returns K_n.
func CompleteGraph(n int) *Graph { return graph.Complete(n) }

// StarGraph returns the star with n−1 leaves.
func StarGraph(n int) *Graph { return graph.Star(n) }

// HypercubeGraph returns the k-dimensional hypercube.
func HypercubeGraph(k int) *Graph { return graph.Hypercube(k) }

// CompleteTreeGraph returns the complete d-ary tree of the given depth.
func CompleteTreeGraph(d, depth int) *Graph { return graph.CompleteTree(d, depth) }

// RandomRegularGraph returns a random simple d-regular graph on n vertices
// (n·d must be even, d < n).
func RandomRegularGraph(n, d int, seed uint64) (*Graph, error) {
	return graph.RandomRegular(n, d, rng.New(seed))
}

// GnpGraph returns an Erdős–Rényi G(n, p) sample via the Θ(n²) pairwise
// sweep (the generator the wire codec's "gnp" family is pinned to).
func GnpGraph(n int, p float64, seed uint64) *Graph {
	return graph.Gnp(n, p, rng.New(seed))
}

// SparseGnpGraph returns an Erdős–Rényi G(n, p) sample in expected
// O(n + m) time via geometric edge skipping — the generator for
// million-vertex sparse workloads, where GnpGraph's quadratic sweep cannot
// run. The two generators draw different graphs for the same seed.
func SparseGnpGraph(n int, p float64, seed uint64) *Graph {
	return graph.SparseGnp(n, p, rng.New(seed))
}

// NewColoring returns the uniform proper q-coloring model on g.
func NewColoring(g *Graph, q int) *Model { return mrf.Coloring(g, q) }

// NewListColoring returns the uniform proper list-coloring model; lists[v]
// ⊆ {0..q-1} is the palette of vertex v.
func NewListColoring(g *Graph, q int, lists [][]int) (*Model, error) {
	return mrf.ListColoring(g, q, lists)
}

// NewHardcore returns the hardcore model at fugacity λ (λ = 1 is the
// uniform distribution over independent sets).
func NewHardcore(g *Graph, lambda float64) *Model { return mrf.Hardcore(g, lambda) }

// NewIndependentSet returns the uniform independent-set model.
func NewIndependentSet(g *Graph) *Model { return mrf.UniformIndependentSet(g) }

// NewVertexCover returns the uniform vertex-cover model.
func NewVertexCover(g *Graph) *Model { return mrf.VertexCover(g) }

// NewIsing returns the Ising model with edge parameter β and field h.
func NewIsing(g *Graph, beta, h float64) *Model { return mrf.Ising(g, beta, h) }

// NewPotts returns the q-state Potts model with edge parameter β.
func NewPotts(g *Graph, q int, beta float64) *Model { return mrf.Potts(g, q, beta) }

// NewModel assembles a custom MRF from explicit activities; see mrf.New for
// the validation rules.
func NewModel(g *Graph, q int, edgeActivities []*Activity, vertexActivities [][]float64) (*Model, error) {
	return mrf.New(g, q, edgeActivities, vertexActivities)
}

// NewActivity returns a zero q×q activity matrix.
func NewActivity(q int) *Activity { return mrf.NewMat(q) }

// HardcoreUniquenessThreshold returns λ_c(Δ) = (Δ−1)^(Δ−1)/(Δ−2)^Δ, the
// phase-transition point above which LOCAL sampling requires Ω(diam) rounds
// (Theorem 5.2; Δ ≥ 3).
func HardcoreUniquenessThreshold(maxDeg int) float64 { return mrf.LambdaC(maxDeg) }

// Option configures Sample.
type Option func(*core.Config)

// WithAlgorithm selects the chain (default LocalMetropolis).
func WithAlgorithm(a Algorithm) Option {
	return func(c *core.Config) { c.Algorithm = a }
}

// WithEpsilon sets the total-variation target for the automatic round
// budget.
func WithEpsilon(eps float64) Option {
	return func(c *core.Config) { c.Epsilon = eps }
}

// WithRounds overrides the automatic round budget.
func WithRounds(t int) Option {
	return func(c *core.Config) { c.Rounds = t }
}

// WithSeed makes the run reproducible.
func WithSeed(seed uint64) Option {
	return func(c *core.Config) { c.Seed = seed }
}

// WithInitial supplies the starting configuration (default: greedy
// feasible).
func WithInitial(init []int) Option {
	return func(c *core.Config) { c.Init = init }
}

// WithBatchWidth steers the SoA multi-chain batch engine compiled samplers
// run a multi-chain Draw's centralized chains through: chains are advanced in
// lockstep blocks of W lanes stored [vertex][chain], so one CSR (or
// constraint-incidence) walk serves the whole block. w = 0 (the default)
// auto-picks the width from the batch size and GOMAXPROCS; w = 1 forces
// the per-chain reference path; 2 ≤ w ≤ 64 pins the block width, used
// whenever a batch has at least w chains. Purely a throughput knob:
// batch chain i is bit-identical to Sample(WithSeed(ChainSeed(s, i))) at
// every width. Sharded, vertex-parallel and remote batches ignore it
// (those runtimes parallelize within a chain instead).
func WithBatchWidth(w int) Option {
	return func(c *core.Config) { c.BatchWidth = w }
}

// Distributed runs a one-shot Sample or SampleCSP as a message-passing
// protocol on the LOCAL-model simulator and reports its communication
// statistics in Result.Stats. Identical seeds give identical samples in
// both modes. Only LubyGlauber and LocalMetropolis have LOCAL protocols
// (other algorithms are rejected when the options are compiled), and the
// simulator has no batch, shard or serving path: NewSampler and
// NewCSPSampler reject it.
func Distributed() Option {
	return func(c *core.Config) { c.Distributed = true }
}

// Transport is the boundary fabric a sharded chain's lockstep exchanges
// run over; see internal/transport for the contract (typed errors,
// buffer ownership, close semantics).
type Transport = transport.Transport

// WithTransport overrides the fabric sharded draws exchange boundary
// states over: the factory is invoked per engine with the plan's shard
// adjacency and must return a fresh Transport. The default in-process
// fabric is what the factory form exists to replace in tests — wrapping
// it in a fault injector is how the error paths of sharded draws are
// exercised. Requires WithShards(k ≥ 2); mutually exclusive with
// Distributed, WithParallelRounds, and WithRemoteWorkers.
func WithTransport(factory func(neighbors [][]int) Transport) Option {
	return func(c *core.Config) { c.Transport = factory }
}

// WithRemoteWorkers places a sharded sampler's shards across lsharded
// worker processes (round-robin-contiguous, every worker hosting at
// least one shard) and runs draws as cross-process lockstep rounds over
// TCP. The reassembled configuration is bit-identical to the local
// (and unsharded) chain at the same seed. Requires WithShards(k) with
// k ≥ len(addrs); the model is shipped to the workers as its wire spec
// (WithModelSpec pins it; otherwise it is derived from the model).
func WithRemoteWorkers(addrs ...string) Option {
	return func(c *core.Config) { c.WorkerAddrs = append([]string(nil), addrs...) }
}

// WithStandbyWorkers keeps a pool of spare lsharded workers behind a
// WithRemoteWorkers fleet. When a draw fails on a worker — it was
// killed, stalled past the result deadline, or dropped its connection —
// the coordinator tears the session down, swaps the next standby into
// the dead worker's slot of the address list, re-ships the job, and
// redraws. Because every shard's state is a pure function of
// (spec, plan, seed), the recovered draw is bit-identical to the
// fault-free one. Requires WithRemoteWorkers.
func WithStandbyWorkers(addrs ...string) Option {
	return func(c *core.Config) { c.StandbyAddrs = append([]string(nil), addrs...) }
}

// RetryPolicy tunes the cross-process coordinator's failure handling:
// attempt budget, jittered exponential backoff, per-stage control
// deadlines, and the supervisor heartbeat interval. Zero fields take
// defaults; the zero policy is the historical retry-once behavior.
type RetryPolicy = core.RetryPolicy

// WithRetryPolicy replaces the coordinator's default failure handling
// (two attempts, 100ms base backoff, 10s/60s/120s dial/ready/result
// deadlines, no heartbeat) for WithRemoteWorkers draws. The policy
// never touches sampling randomness, so draws that needed retries are
// still bit-identical to undisturbed draws.
func WithRetryPolicy(p RetryPolicy) Option {
	return func(c *core.Config) { cp := p; c.Retry = &cp }
}

// WithModelSpec pins the wire spec WithRemoteWorkers ships to the
// workers, for models that were themselves built from a spec (the
// serving path) — skipping the re-derivation and keeping the content
// address stable.
func WithModelSpec(s *Spec) Option {
	return func(c *core.Config) { c.ModelSpec = s }
}

// Metrics is a process-wide metrics registry: atomic counters, gauges,
// and log-bucket histograms with Prometheus text exposition
// (WritePrometheus / the debug handlers). One registry is typically
// shared by every sampler in the process and scraped from one
// /metrics endpoint.
type Metrics = obs.Registry

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics { return obs.NewRegistry() }

// Trace is one draw's timing trace: per-round compute/barrier spans
// per shard (and per worker process for remote draws). WriteChrome
// renders it as Chrome trace-event JSON for chrome://tracing and
// Perfetto.
type Trace = obs.Trace

// WithMetrics publishes a compiled sampler's runtime series into reg:
// draw counts and latency histograms, per-round compute/barrier
// histograms and flip counters, and — for WithRemoteWorkers draws —
// per-worker up/down gauges and per-stage WorkerError counters.
// Recording is allocation-free on every hot path; without this option
// no instrumentation runs at all.
func WithMetrics(reg *Metrics) Option {
	return func(c *core.Config) { c.Obs = reg }
}

// WithLogger routes a compiled sampler's structured logs (worker
// session lifecycle, draw failures) to l. Without it samplers are
// silent; errors still surface as returned values either way.
func WithLogger(l *slog.Logger) Option {
	return func(c *core.Config) { c.Log = l }
}

// Diagnosis is the mixing report a diagnosed draw returns alongside the
// sample: per-round Hamming-disagreement and flip-rate series over the
// coupled chains, per-shard compute/barrier attribution, and the
// coalescence verdict with the measured round budget.
type Diagnosis = diag.Diagnosis

// CouplingProbe observes a diagnosed draw's coupling live, one call per
// round. It runs on the round hot path and must not allocate or block;
// the service's SSE streaming endpoint is implemented as one.
type CouplingProbe = diag.Probe

// WithCoupling sets the number of coupled chains diagnosed draws and
// WithRoundsAuto measurements advance (default 4, minimum 2). Chain 0 is
// always the draw itself; the others start from adversarial initial
// states and share its PRF coins.
func WithCoupling(k int) Option {
	return func(c *core.Config) { c.Coupling = k }
}

// WithRoundsAuto replaces the worst-case round budget with a measured
// one: at compile time the sampler runs a grand coupling under the
// configured seed and stops at coalescence, capped by what the fixed
// budget would have been (CapRounds). A draw under the measured budget is
// bit-identical to WithRounds(measured) at the same seed. Honored by
// compiled samplers (NewSampler / NewCSPSampler); the one-shot Sample
// routes through one.
func WithRoundsAuto() Option {
	return func(c *core.Config) { c.RoundsAuto = true }
}

// Sample draws one configuration approximately distributed as the model's
// Gibbs distribution, at exactly the WithSeed seed: it is the reference
// the compiled draw is stated against (chain i of Sampler.Draw with seed s
// equals Sample at seed ChainSeed(s, i)). It compiles the model under
// opts, draws once, and closes, so every option a Sampler honors —
// runtimes, remote workers, measured budgets, metrics — is honored here
// too. With Distributed the compiled init and budget run on the
// LOCAL-model simulator instead.
func Sample(m *Model, opts ...Option) (*Result, error) {
	cfg := mrfConfig(opts)
	s, err := compileMRF(m, cfg)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	res := &Result{Rounds: s.rounds, TheoryRounds: s.theory}
	if cfg.Distributed {
		res.Sample, res.Stats, err = dist.RunMRF(m, cfg.Algorithm, s.init, cfg.Seed, s.rounds, cfg.DropRule3)
	} else {
		var st ShardStats
		res.Sample, st, err = s.drawOne(context.Background(), cfg.Seed, nil)
		if s.shards > 1 {
			res.Shard = &st
		}
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TheoryRounds returns the paper's round bound for the model/algorithm pair
// at total-variation target eps, without running anything.
func TheoryRounds(m *Model, alg Algorithm, eps float64) (int, error) {
	return core.AutoRounds(m, alg, eps)
}
