package locsample

import (
	"context"
	"fmt"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/core"
	"locsample/internal/csp"
	"locsample/internal/diag"
	"locsample/internal/dist"
	"locsample/internal/partition"
	"locsample/internal/transport"
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

// CSPSampler is the compiled CSP sampler — the CSP counterpart of Sampler,
// sharing its draw core. NewCSPSampler resolves the run parameters once
// (round budget, feasibility of the initial configuration, and, with
// WithShards, the constraint-scope partition plan); draws then reuse
// pooled chain states (or pooled sharded engines), so steady-state rounds
// allocate nothing.
//
// Determinism contract: chain i of a k-chain draw with master seed s is
// bit-identical to a single SampleCSP draw with seed ChainSeed(s, i),
// regardless of worker count, scheduling, shard count, partition strategy,
// or vertex-parallel worker count — WithShards and WithParallelRounds are
// purely latency knobs.
type CSPSampler struct {
	drawCore
}

// NewCSPSampler compiles CSP c on network g with the given options into a
// reusable sampler. init must be feasible and WithRounds must supply a
// positive budget (CSPs have no theory budget). LOCAL-model draws are
// one-shot only: use SampleCSP(..., distributed=true).
func NewCSPSampler(g *Graph, c *CSPModel, init []int, opts ...Option) (*CSPSampler, error) {
	cfg := cspConfig(opts)
	cfg.Init = init
	if cfg.Distributed {
		return nil, fmt.Errorf("locsample: compiled samplers run the chain runtimes; use SampleCSP(..., distributed=true) for the LOCAL-model runtime")
	}
	return compileCSP(g, c, cfg)
}

// cspConfig resolves CSP options into a config.
func cspConfig(opts []Option) core.Config {
	cfg := core.Config{Algorithm: chains.LubyGlauber}
	for _, opt := range opts {
		opt(&cfg)
	}
	return cfg
}

// compileCSP compiles CSP c under an already-resolved config — the one
// constructor behind NewCSPSampler and SampleCSP.
func compileCSP(g *Graph, c *CSPModel, cfg core.Config) (*CSPSampler, error) {
	if g != nil && g.N() != c.N {
		return nil, fmt.Errorf("locsample: CSP has %d vertices, network %d", c.N, g.N())
	}
	rounds, err := core.CompileCSP(c, cfg)
	if err != nil {
		return nil, err
	}
	init := append([]int(nil), cfg.Init...)
	s := &CSPSampler{}
	if err := s.compile(&cspFamily{g: g, c: c, cfg: cfg, init: init}, "csp", cfg, init, rounds, 0); err != nil {
		return nil, err
	}
	return s, nil
}

// cspFamily is the CSP side of the draw core: the hypergraph LubyGlauber
// chain (§3 remark).
type cspFamily struct {
	g    *Graph
	c    *CSPModel
	cfg  core.Config
	init []int
	// shards is the compiled constraint-scope plan (nil when unsharded).
	shards *partition.CSPPlan
}

func (f *cspFamily) newChain() *chainState {
	cs := csp.NewChain(f.c, f.init, 0, f.cfg.Parallel)
	return &chainState{chainRunner: cs, Hooks: &cs.Hooks, x: cs.X}
}

func (f *cspFamily) newBlock(width int) *blockState {
	b := csp.NewSoABlock(f.c, width)
	return &blockState{blockRunner: b, Hooks: &b.Hooks}
}

func (f *cspFamily) plan() (*partition.Layout, error) {
	p, err := partition.BuildCSP(f.c, f.cfg.Shards, f.cfg.ShardStrategy, f.cfg.Seed)
	if err != nil {
		return nil, err
	}
	f.shards = p
	return &p.Layout, nil
}

func (f *cspFamily) newEngine(local []int, tr transport.Transport) (*cluster.Engine, error) {
	if tr == nil {
		return cluster.NewCSP(f.c, f.shards, chains.LubyGlauber)
	}
	return cluster.NewCSPWithTransport(f.c, f.shards, chains.LubyGlauber, local, tr)
}

func (f *cspFamily) newCoupled(seed uint64, o diag.Options) (*diag.Coupled, error) {
	return diag.NewCoupledCSP(f.c, f.init, seed, o)
}

func (f *cspFamily) remoteJob() (remoteJob, error) {
	sp := f.cfg.ModelSpec
	if sp == nil {
		var err error
		if sp, err = NewSpecFromCSP(f.g, f.c, f.init, f.cfg.Rounds, "remote"); err != nil {
			return remoteJob{}, fmt.Errorf("locsample: remote draws ship the CSP as a spec: %w", err)
		}
	}
	return remoteJob{kind: "csp", spec: sp}, nil
}

// SampleCSP draws one configuration approximately distributed as the CSP's
// Gibbs distribution using the hypergraph LubyGlauber chain (§3 remark).
// When distributed is true the chain runs as a LOCAL protocol on network g
// (two communication rounds per chain iteration; constraints must have
// scope radius ≤ 1 on g, as cover constraints do). init must be feasible;
// rounds > 0 is required (no general theory budget exists for arbitrary
// CSPs). Options may select any runtime a CSPSampler runs — WithShards(k)
// runs the chain as k lockstep shard workers over a constraint-scope
// partition (in-process, or on WithRemoteWorkers), WithParallelRounds(n)
// fans each round's phases over n goroutines — all bit-identical to the
// sequential chain at the same seed, and all exclusive with distributed
// mode. SampleCSP is the exact-seed reference of the compiled CSP draw:
// chain i of CSPSampler.Draw with seed s equals SampleCSP at seed
// ChainSeed(s, i).
func SampleCSP(g *Graph, c *CSPModel, init []int, rounds int, seed uint64, distributed bool, opts ...Option) ([]int, Stats, error) {
	if rounds <= 0 {
		return nil, Stats{}, fmt.Errorf("locsample: SampleCSP needs rounds > 0")
	}
	cfg := cspConfig(opts)
	cfg.Algorithm, cfg.Rounds, cfg.Seed, cfg.Init = chains.LubyGlauber, rounds, seed, init
	cfg.Distributed = cfg.Distributed || distributed
	s, err := compileCSP(g, c, cfg)
	if err != nil {
		return nil, Stats{}, err
	}
	defer s.Close()
	if cfg.Distributed {
		// The compile resolved and validated the budget, init and runtime;
		// the LOCAL-model protocol runs exactly that chain.
		return dist.RunCSPLubyGlauber(g, c, s.init, seed, s.rounds)
	}
	x, _, err := s.drawOne(context.Background(), seed, nil)
	if err != nil {
		return nil, Stats{}, err
	}
	return x, Stats{Rounds: s.rounds}, nil
}
