// Package core resolves what a draw needs before it runs: it checks a
// Config's runtime knobs against each other and ties a model, an algorithm
// choice, and theory-derived round budgets into the budget and initial
// configuration every compiled sampler (and so every draw) runs with.
//
// The round budgets come from the paper's theorems:
//
//   - LubyGlauber (Theorem 3.2): with Luby-step selection probability
//     γ = 1/(Δ+1) and total influence α < 1, choosing
//     T₁ = ⌈(1/γ)·ln(4n/ε)⌉ and T₂ = ⌈1/((1−α)γ)·ln(2n/ε)⌉ gives
//     d_TV ≤ ε after T₁+T₂ rounds.
//   - LocalMetropolis for colorings (Theorem 4.2 via Lemma 4.3): with
//     one-step contraction margin δ (the LHS of (13) or (26), whichever is
//     positive and larger), τ(ε) ≤ ln(nΔ/ε)/δ since diam(Ω) ≤ nΔ in the
//     degree-weighted path-coupling metric.
package core

import (
	"fmt"
	"log/slog"
	"math"
	"strings"
	"time"

	"locsample/internal/chains"
	"locsample/internal/cluster"
	"locsample/internal/coupling"
	"locsample/internal/csp"
	"locsample/internal/exact"
	"locsample/internal/localmodel"
	"locsample/internal/mrf"
	"locsample/internal/obs"
	"locsample/internal/partition"
	"locsample/internal/rng"
	"locsample/internal/spec"
	"locsample/internal/transport"
)

// Config selects an algorithm and its parameters for a draw.
type Config struct {
	// Algorithm picks the chain (default LocalMetropolis).
	Algorithm chains.Algorithm
	// Epsilon is the total-variation target used by the automatic round
	// budget (default 1/e² ≈ 0.135; any value in (0,1)).
	Epsilon float64
	// Rounds overrides the automatic budget when positive.
	Rounds int
	// RoundsAuto replaces the worst-case round budget with a measured one:
	// at compile time the engine runs a grand coupling (Coupling chains,
	// shared PRF coins, adversarial starts — internal/diag) under the
	// compiled seed, capped at the budget the other fields resolve to
	// (explicit Rounds, or the theory/heuristic budget), and every draw
	// then runs the measured round count. Draws stay bit-identical to a
	// fixed-budget sampler pinned to the same round count. Only compiled
	// samplers honor it; the one-shot draws route through one.
	RoundsAuto bool
	// Coupling is the coupled-chain count diagnosed draws and RoundsAuto
	// measurements run with (default 4; must be ≥ 2 when set).
	Coupling int
	// Seed drives all randomness. Two runs with equal seeds coincide.
	Seed uint64
	// Distributed makes a one-shot draw run the protocol on the LOCAL-model
	// simulator (internal/dist) instead of the (trajectory-identical)
	// centralized chain, and report communication statistics. Compiled
	// samplers reject it. Only LubyGlauber and LocalMetropolis have LOCAL
	// protocols.
	Distributed bool
	// DropRule3 enables the E4 ablation for LocalMetropolis.
	DropRule3 bool
	// Init supplies the starting configuration; when nil a greedy feasible
	// configuration is constructed.
	Init []int
	// Workers bounds the goroutine pool a compiled sampler spreads a
	// draw's chains over (default: GOMAXPROCS; when sharding,
	// GOMAXPROCS/Shards). One-chain draws ignore it.
	Workers int
	// Shards > 1 splits every single chain across that many lockstep shard
	// workers exchanging only boundary states (internal/cluster) — the
	// within-chain parallelism the paper's O(log n)-round locality buys.
	// Output is bit-identical to the centralized chain at the same seed,
	// invariant to shard count and partition strategy. Only LubyGlauber
	// and LocalMetropolis shard, and only compiled samplers run shards.
	// Shards, Parallel and Distributed each pick a runtime; checkRuntime
	// admits one per draw.
	Shards int
	// Parallel > 1 runs each centralized round's phases across that many
	// goroutines over contiguous CSR ranges (chains.Options.Parallel) — the
	// lightweight in-chain parallelism that needs no partition plan.
	// Trajectories are bit-identical to sequential rounds at every worker
	// count. Only LubyGlauber and LocalMetropolis support it.
	Parallel int
	// ShardStrategy selects the graph partitioner for Shards > 1
	// (default partition.Range).
	ShardStrategy partition.Strategy
	// BatchWidth steers the SoA multi-chain batch engine compiled samplers
	// run multi-chain draws through: 0 (default) auto-picks the lane width
	// from the batch size and GOMAXPROCS, 1 forces the per-chain reference
	// path, and 2..64 pins the block width (used whenever the batch has at
	// least that many chains). Purely a throughput knob: SoA chain i is
	// bit-identical to the per-chain path at seed ChainSeed(s, i) at every
	// width. Only centralized sequential batches batch — shards, Parallel
	// and remote draws ignore it.
	BatchWidth int
	// WorkerAddrs lists lsharded worker addresses; when non-empty (and
	// Shards > 1) a compiled sampler places the shards across those
	// processes and runs the lockstep rounds over TCP instead of
	// in-process. Draws remain bit-identical to the centralized chain.
	// Requires len(WorkerAddrs) <= Shards.
	WorkerAddrs []string
	// Transport, when non-nil, supplies the boundary fabric sharded
	// in-process draws run on instead of the default channel transport.
	// neighbors is the plan's shard adjacency. The primary consumer is
	// fault-injection testing.
	Transport func(neighbors [][]int) transport.Transport
	// StandbyAddrs lists spare lsharded workers for WorkerAddrs draws.
	// When a draw fails on a worker, the coordinator swaps the next
	// standby into that worker's slot in the address list and redraws —
	// shard state is a pure function of (spec, plan, seed), so the
	// recovered draw is bit-identical to a fault-free one. Requires
	// WorkerAddrs.
	StandbyAddrs []string
	// Retry tunes the coordinator's failure handling for WorkerAddrs
	// draws: attempt budget, jittered exponential backoff between
	// attempts, per-stage deadlines, and the heartbeat interval. Nil
	// means DefaultRetryPolicy (two attempts — the historical
	// retry-once).
	Retry *RetryPolicy
	// ModelSpec optionally carries the model's wire spec for WorkerAddrs
	// draws, sparing the sampler the export step (the serving layer
	// already holds the canonical spec). Remote workers rebuild the
	// model from this spec.
	ModelSpec *spec.Spec
	// Obs, when non-nil, is the registry compiled samplers publish their
	// runtime metrics into (WithMetrics): draw counts and latency
	// histograms, per-round compute/barrier series, and — for remote
	// draws — worker up/down gauges and per-stage WorkerError counters.
	// Nil disables metrics at zero hot-path cost.
	Obs *obs.Registry
	// Log, when non-nil, receives the samplers' structured logs
	// (WithLogger); nil means silent.
	Log *slog.Logger
}

// RetryPolicy tunes how the cross-process coordinator treats worker
// failures: how many times a draw is attempted, how the coordinator
// backs off between attempts, the per-stage control deadlines, and the
// heartbeat cadence of the worker supervisor. The zero value of any
// field means "use the default"; Jitter < 0 disables jitter. None of
// these knobs touch sampling randomness — backoff jitter comes from a
// throwaway PRNG, never from the chain's PRF — so retried draws remain
// bit-identical to fault-free ones.
type RetryPolicy struct {
	// Attempts is the total draw attempts before the typed WorkerError
	// surfaces (default 2: the original try plus one retry).
	Attempts int
	// Backoff is the pause before the second attempt; it doubles per
	// subsequent attempt up to MaxBackoff (default 100ms).
	Backoff time.Duration
	// MaxBackoff caps the exponential growth (default 2s).
	MaxBackoff time.Duration
	// Jitter is the uniformly random fraction of the backoff added to
	// each pause, decorrelating retry storms (default 0.2; negative
	// disables).
	Jitter float64
	// DialTimeout bounds each worker control dial, retries included
	// (default 10s).
	DialTimeout time.Duration
	// WriteTimeout bounds each control write (default 30s).
	WriteTimeout time.Duration
	// ReadyTimeout bounds the wait for a worker's ready after the job is
	// shipped — it covers the workers' mutual mesh dialing (default 60s).
	ReadyTimeout time.Duration
	// ResultTimeout bounds the wait for a draw result — a full draw's
	// rounds (default 120s). This is the deadline that turns a stalled
	// (SIGSTOPped, wedged) worker into a typed error and a replacement.
	ResultTimeout time.Duration
	// Heartbeat, when positive, runs a supervisor that pings every
	// worker address at this interval over short-lived control
	// connections, keeping the locsample_worker_up gauges live between
	// draws (default 0: no heartbeat).
	Heartbeat time.Duration
}

// DefaultRetryPolicy is the policy a nil Config.Retry resolves to.
func DefaultRetryPolicy() RetryPolicy { return RetryPolicy{}.WithDefaults() }

// WithDefaults fills every unset field with its default.
func (p RetryPolicy) WithDefaults() RetryPolicy {
	if p.Attempts <= 0 {
		p.Attempts = 2
	}
	if p.Backoff <= 0 {
		p.Backoff = 100 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 2 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.2
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.DialTimeout <= 0 {
		p.DialTimeout = 10 * time.Second
	}
	if p.WriteTimeout <= 0 {
		p.WriteTimeout = 30 * time.Second
	}
	if p.ReadyTimeout <= 0 {
		p.ReadyTimeout = 60 * time.Second
	}
	if p.ResultTimeout <= 0 {
		p.ResultTimeout = 120 * time.Second
	}
	return p
}

// Delay returns the backoff before attempt `attempt` (1-based count of
// failures so far): Backoff · 2^(attempt-1), capped at MaxBackoff.
// Jitter is applied by the caller.
func (p RetryPolicy) Delay(attempt int) time.Duration {
	d := p.Backoff
	for i := 1; i < attempt && d < p.MaxBackoff; i++ {
		d *= 2
	}
	if d > p.MaxBackoff {
		d = p.MaxBackoff
	}
	return d
}

// TagChain keys the seed-splitting PRF of the batch engine: chain i of a
// k-chain batch runs with seed ChainSeed(s, i). The tag is disjoint from the
// chains/csp/dist tag spaces, so batch seeds never collide with any variate
// a single chain consumes.
const TagChain = 0x4001

// ChainSeed derives the seed of chain `chain` in a batch run with master
// seed `seed`. Batch chain i is bit-identical to a one-shot draw with this
// derived seed — the determinism contract of the batch engine.
func ChainSeed(seed uint64, chain uint64) uint64 {
	return rng.PRF(seed, TagChain, chain)
}

// Result is a sample plus its provenance.
type Result struct {
	// Sample is the output configuration, one spin per vertex.
	Sample []int
	// Rounds is the number of chain iterations executed.
	Rounds int
	// TheoryRounds is the bound the automatic budget used (0 when the
	// caller supplied Rounds explicitly).
	TheoryRounds int
	// Stats reports communication costs for one-shot Distributed draws.
	Stats localmodel.Stats
	// Shard reports the sharded runtime's profile (nil for unsharded
	// draws).
	Shard *cluster.Stats
}

// LubyGlauberRounds returns the Theorem 3.2 round budget T₁+T₂ for total
// influence alpha < 1 on a graph with n vertices and maximum degree maxDeg.
func LubyGlauberRounds(n, maxDeg int, alpha, eps float64) (int, error) {
	if alpha >= 1 || alpha < 0 {
		return 0, fmt.Errorf("core: Dobrushin condition needs 0 <= α < 1, got %v", alpha)
	}
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("core: need 0 < ε < 1, got %v", eps)
	}
	gamma := 1 / float64(maxDeg+1)
	t1 := math.Ceil(math.Log(4*float64(n)/eps) / gamma)
	t2 := math.Ceil(math.Log(2*float64(n)/eps) / ((1 - alpha) * gamma))
	return int(t1 + t2), nil
}

// LocalMetropolisRoundsColoring returns the Theorem 4.2 / Lemma 4.3 round
// budget for proper q-colorings: ln(nΔ/ε)/δ with δ the best positive
// contraction margin among (13) and (26). It errors when neither margin is
// positive (q too small for the proved regime).
func LocalMetropolisRoundsColoring(n, maxDeg, q int, eps float64) (int, error) {
	if eps <= 0 || eps >= 1 {
		return 0, fmt.Errorf("core: need 0 < ε < 1, got %v", eps)
	}
	if maxDeg == 0 {
		return 1, nil
	}
	delta := math.Max(coupling.Analytic13(q, maxDeg), coupling.Analytic26(q, maxDeg))
	if delta <= 0 {
		return 0, fmt.Errorf("core: no proved contraction for q=%d, Δ=%d (need q ⪆ (2+√2)Δ)", q, maxDeg)
	}
	t := math.Ceil(math.Log(float64(n)*float64(maxDeg)/eps) / delta)
	return int(t), nil
}

// AutoRounds picks a round budget for the given model and algorithm. For
// colorings it uses the paper's bounds; for other models it falls back to a
// Dobrushin-style estimate from the exact influence matrix when the model
// is small enough, and otherwise to a generous heuristic Θ(Δ log(n/ε)) (for
// LubyGlauber) or Θ(log(n/ε)) (for LocalMetropolis) budget.
func AutoRounds(m *mrf.MRF, alg chains.Algorithm, eps float64) (int, error) {
	n, maxDeg := m.G.N(), m.G.MaxDeg()
	if m.IsColoringModel() {
		switch alg {
		case chains.LocalMetropolis:
			if t, err := LocalMetropolisRoundsColoring(n, maxDeg, m.Q, eps); err == nil {
				return t, nil
			}
			// Outside the proved regime: fall through to the heuristic.
		default:
			alpha := mrf.DobrushinAlphaColoring(m.G, mrf.UniformQs(n, m.Q))
			if alpha < 1 {
				return LubyGlauberRounds(n, maxDeg, alpha, eps)
			}
		}
	}
	// Exact influence for small models.
	if rho, err := exact.InfluenceMatrix(m, 1<<16); err == nil {
		if alpha := exact.TotalInfluence(rho); alpha < 1 {
			return LubyGlauberRounds(n, maxDeg, alpha, eps)
		}
	}
	// Heuristic budget, clearly flagged as such by not being a theorem.
	logTerm := math.Log(float64(n)/eps) + 1
	switch alg {
	case chains.LocalMetropolis:
		return int(math.Ceil(20 * logTerm)), nil
	default:
		return int(math.Ceil(4 * float64(maxDeg+1) * logTerm)), nil
	}
}

// checkRuntime resolves the runtime knobs of cfg against each other, for
// both Compile paths. A draw runs on exactly one runtime — sequential
// rounds, vertex-parallel rounds (Parallel), the LOCAL-model simulator
// (Distributed, one-shot draws of the two LOCAL algorithms only), or
// shards (Shards) — and the fabric knobs refine only the sharded one:
// in-process over the default or a custom Transport, or across
// WorkerAddrs processes with StandbyAddrs as spares.
func checkRuntime(cfg Config) error {
	if cfg.Distributed && cfg.Algorithm != chains.LubyGlauber && cfg.Algorithm != chains.LocalMetropolis {
		return fmt.Errorf("core: %v has no LOCAL protocol (only LubyGlauber and LocalMetropolis run Distributed)", cfg.Algorithm)
	}
	var picked []string
	if cfg.Distributed {
		picked = append(picked, "Distributed")
	}
	if cfg.Parallel > 1 {
		picked = append(picked, "Parallel")
	}
	if cfg.Shards > 1 {
		picked = append(picked, "Shards")
	}
	if len(picked) > 1 {
		return fmt.Errorf("core: %s are mutually exclusive (pick one runtime)", strings.Join(picked, " and "))
	}
	if len(cfg.WorkerAddrs) > 0 || cfg.Transport != nil {
		if cfg.Shards <= 1 {
			return fmt.Errorf("core: WorkerAddrs and Transport need Shards > 1 (they are the sharded runtime's fabric)")
		}
		if len(cfg.WorkerAddrs) > 0 && cfg.Transport != nil {
			return fmt.Errorf("core: WorkerAddrs and Transport are two fabrics (remote draws own their TCP fabric); pick one")
		}
		if len(cfg.WorkerAddrs) > cfg.Shards {
			return fmt.Errorf("core: %d worker addresses for %d shards (every worker must host at least one shard)", len(cfg.WorkerAddrs), cfg.Shards)
		}
	}
	if len(cfg.StandbyAddrs) > 0 && len(cfg.WorkerAddrs) == 0 {
		return fmt.Errorf("core: StandbyAddrs without WorkerAddrs (standbys are spares for a remote worker fleet)")
	}
	// Lane sets are uint64 bitmasks, so 64 is the hard ceiling
	// (chains.MaxBatchWidth / csp.MaxBatchWidth).
	if cfg.BatchWidth < 0 || cfg.BatchWidth > 64 {
		return fmt.Errorf("core: BatchWidth must be in [0, 64], got %d", cfg.BatchWidth)
	}
	return nil
}

// Compile resolves the run parameters an MRF draw derives from its Config:
// the effective round budget (plus the theory budget when it was
// automatic, else 0) and the initial configuration. Every MRF sampler —
// and so every one-shot draw, LOCAL-model ones included — compiles
// through it, so resolutions can never drift apart: batch chain i is
// bit-identical to a derived-seed one-shot draw.
func Compile(m *mrf.MRF, cfg Config) (rounds, theory int, init []int, err error) {
	if err := checkRuntime(cfg); err != nil {
		return 0, 0, nil, err
	}
	if cfg.Parallel > 1 && cfg.Algorithm != chains.LubyGlauber && cfg.Algorithm != chains.LocalMetropolis {
		return 0, 0, nil, fmt.Errorf("core: %v has no vertex-parallel rounds (only LubyGlauber and LocalMetropolis decompose into barrier-separated phases)", cfg.Algorithm)
	}
	eps := cfg.Epsilon
	if eps == 0 {
		eps = math.Exp(-2)
	}
	rounds = cfg.Rounds
	if rounds <= 0 {
		t, err := AutoRounds(m, cfg.Algorithm, eps)
		if err != nil {
			return 0, 0, nil, err
		}
		rounds, theory = t, t
	}
	init = cfg.Init
	if init == nil {
		init, err = chains.GreedyFeasible(m)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("core: no feasible initial configuration: %w", err)
		}
	} else if len(init) != m.G.N() {
		return 0, 0, nil, fmt.Errorf("core: init length %d for %d vertices", len(init), m.G.N())
	}
	return rounds, theory, init, nil
}

// CompileCSP resolves and validates the run parameters of a CSP draw from
// its Config — the CSP counterpart of Compile, shared by the one-shot
// SampleCSP path and the compiled CSP batch sampler so their resolutions
// cannot drift. CSP workloads run the hypergraph LubyGlauber chain (§3
// remark) and have no theory round budget, so Rounds must be explicit; the
// runtime knobs are checked exactly as for MRFs.
func CompileCSP(c *csp.CSP, cfg Config) (rounds int, err error) {
	if err := checkRuntime(cfg); err != nil {
		return 0, err
	}
	if cfg.Algorithm != chains.LubyGlauber {
		return 0, fmt.Errorf("core: CSP draws run the hypergraph LubyGlauber chain, not %v", cfg.Algorithm)
	}
	if cfg.Rounds <= 0 {
		return 0, fmt.Errorf("core: CSP draws need an explicit rounds > 0 (no general theory budget exists for arbitrary CSPs)")
	}
	if len(cfg.Init) != c.N {
		return 0, fmt.Errorf("core: init length %d for %d vertices", len(cfg.Init), c.N)
	}
	if !c.Feasible(cfg.Init) {
		return 0, fmt.Errorf("core: initial configuration is infeasible")
	}
	return cfg.Rounds, nil
}
