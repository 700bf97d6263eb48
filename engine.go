package locsample

import (
	"fmt"
	"runtime"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/core"
	"locsample/internal/diag"
	"locsample/internal/partition"
	"locsample/internal/transport"
)

// Sampler is the compiled MRF sampler: it compiles a model and option set
// once — round budget, feasible initial configuration, proposal tables, CSR
// adjacency, and (with WithShards) the partitioned shard plan — and then
// draws any number of independent samples without repeating that setup.
// Draw, its one draw method, spreads chains over a worker pool; each
// worker reuses pooled chain state and scratch, so the chains' inner loops
// run allocation-free in the steady state. With WithShards(k), every chain
// additionally runs as k lockstep shard workers exchanging only boundary
// states — within-chain parallelism for single-draw latency on graphs too
// large for one core.
//
// Determinism: chain i of a k-chain draw with master seed s is
// bit-identical to a one-shot Sample with seed ChainSeed(s, i), regardless
// of k, worker count, scheduling, shard count, or partition strategy.
type Sampler struct {
	drawCore
}

// ShardStats reports a sharded draw's runtime profile: worker count,
// boundary messages and vertex states exchanged, and time spent blocked at
// round barriers.
type ShardStats = cluster.Stats

// ShardStrategy selects the graph partitioner used by WithShards.
type ShardStrategy = partition.Strategy

const (
	// ShardRange partitions vertices into contiguous, balanced ID blocks —
	// near-minimal boundaries on generators with coherent numbering
	// (grids, paths, tori).
	ShardRange = partition.Range
	// ShardBFS grows shards by seeded breadth-first search — low-cut
	// regions on graphs whose vertex numbering carries no locality.
	ShardBFS = partition.BFS
)

// ChainSeed derives the seed batch chain i runs with under master seed s:
// chain i of Draw equals Sample(WithSeed(ChainSeed(s, i))) bit-for-bit.
func ChainSeed(s uint64, i int) uint64 {
	return core.ChainSeed(s, uint64(i))
}

// WithWorkers bounds the goroutine pool Draw uses (default GOMAXPROCS,
// or GOMAXPROCS/shards when sharding). It does not affect results, only
// how chains are spread over CPUs.
func WithWorkers(n int) Option {
	return func(c *core.Config) { c.Workers = n }
}

// WithShards splits every single chain across k lockstep shard workers
// that exchange only boundary states between rounds (the in-process
// analogue of the paper's message-passing network). Output is
// bit-identical to the unsharded chain at the same seed — a vertex keeps
// its PRF-keyed randomness regardless of which shard owns it — so k is
// purely a latency/throughput knob. Only LubyGlauber and LocalMetropolis
// shard; k ≤ 1 means centralized.
func WithShards(k int) Option {
	return func(c *core.Config) { c.Shards = k }
}

// WithShardStrategy selects the graph partitioner WithShards uses
// (default ShardRange). The choice never affects outputs, only boundary
// traffic.
func WithShardStrategy(s ShardStrategy) Option {
	return func(c *core.Config) { c.ShardStrategy = s }
}

// WithParallelRounds runs each round of every chain as barrier-separated
// vertex-parallel phases (propose / edge-filter / accept, and β-fill /
// resample) fanned across n goroutines over contiguous CSR ranges; n <= 0
// means GOMAXPROCS. Unlike WithShards this needs no partition plan or
// boundary exchange — it is the lightweight way to put one chain on many
// cores. Trajectories are bit-identical to sequential rounds at every
// worker count, so n is purely a latency knob. Only LubyGlauber and
// LocalMetropolis support it; it is mutually exclusive with WithShards and
// Distributed.
func WithParallelRounds(n int) Option {
	return func(c *core.Config) {
		if n <= 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.Parallel = n
	}
}

// ParseShardStrategy maps a wire name ("range", "bfs", or "" for the
// default) to a ShardStrategy.
func ParseShardStrategy(s string) (ShardStrategy, error) {
	return partition.ParseStrategy(s)
}

// NewSampler compiles model m with the given options into a reusable
// sampler. The round budget, the greedy feasible initial configuration,
// and (when sharded) the partition plan are resolved once, here; they are
// exactly the values a one-shot Sample with the same options resolves.
// LOCAL-model draws are one-shot only: NewSampler rejects Distributed.
func NewSampler(m *Model, opts ...Option) (*Sampler, error) {
	cfg := mrfConfig(opts)
	if cfg.Distributed {
		return nil, fmt.Errorf("locsample: compiled samplers run the chain runtimes; use the one-shot Sample for the LOCAL-model runtime (Distributed)")
	}
	return compileMRF(m, cfg)
}

// mrfConfig resolves MRF options into a config.
func mrfConfig(opts []Option) core.Config {
	cfg := core.Config{Algorithm: chains.LocalMetropolis}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// compileMRF compiles model m under an already-resolved config — the one
// constructor behind NewSampler and the one-shot Sample.
func compileMRF(m *Model, cfg core.Config) (*Sampler, error) {
	rounds, theory, init, err := core.Compile(m, cfg)
	if err != nil {
		return nil, err
	}
	// Copied: the caller may mutate the slice it passed WithInitial.
	init = append([]int(nil), init...)
	s := &Sampler{}
	if err := s.compile(&mrfFamily{m: m, cfg: cfg, init: init}, "mrf", cfg, init, rounds, theory); err != nil {
		return nil, err
	}
	return s, nil
}

// mrfFamily is the MRF side of the draw core.
type mrfFamily struct {
	m    *Model
	cfg  core.Config
	init []int
	// shards is the compiled shard plan (nil when unsharded).
	shards *partition.Plan
}

func (f *mrfFamily) newChain() *chainState {
	cs := chains.NewSampler(f.m, f.init, 0, f.cfg.Algorithm,
		chains.Options{DropRule3: f.cfg.DropRule3, Parallel: f.cfg.Parallel})
	return &chainState{chainRunner: cs, Hooks: &cs.Hooks, x: cs.X}
}

func (f *mrfFamily) newBlock(width int) *blockState {
	b := chains.NewSoABlock(f.m, f.cfg.Algorithm, chains.Options{DropRule3: f.cfg.DropRule3}, width)
	return &blockState{blockRunner: b, Hooks: &b.Hooks}
}

func (f *mrfFamily) plan() (*partition.Layout, error) {
	p, err := partition.Build(f.m.G, f.cfg.Shards, f.cfg.ShardStrategy, f.cfg.Seed)
	if err != nil {
		return nil, err
	}
	f.shards = p
	return &p.Layout, nil
}

func (f *mrfFamily) newEngine(local []int, tr transport.Transport) (*cluster.Engine, error) {
	if tr == nil {
		return cluster.New(f.m, f.shards, f.cfg.Algorithm, f.cfg.DropRule3)
	}
	return cluster.NewWithTransport(f.m, f.shards, f.cfg.Algorithm, f.cfg.DropRule3, local, tr)
}

func (f *mrfFamily) newCoupled(seed uint64, o diag.Options) (*diag.Coupled, error) {
	return diag.NewCoupledMRF(f.m, f.init, seed, f.cfg.Algorithm, chains.Options{DropRule3: f.cfg.DropRule3}, o)
}

func (f *mrfFamily) remoteJob() (remoteJob, error) {
	// The workers rebuild the model from its wire spec; derive one when
	// the caller didn't pin it with WithModelSpec.
	sp := f.cfg.ModelSpec
	if sp == nil {
		var err error
		if sp, err = NewSpecFromModel(f.m, "remote"); err != nil {
			return remoteJob{}, fmt.Errorf("locsample: remote draws ship the model as a spec: %w", err)
		}
	}
	return remoteJob{kind: "mrf", spec: sp, algorithm: f.cfg.Algorithm.String(), dropRule3: f.cfg.DropRule3}, nil
}
