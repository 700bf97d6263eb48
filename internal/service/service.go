// Package service is the serving layer between the wire codec
// (internal/spec) and the batch engine: a model registry keyed by spec
// content hash, an LRU cache of compiled samplers, per-model request
// counters, and concurrent draw execution.
//
// The registry guarantees two things the HTTP layer and its tests pin:
//
//   - Compile-once: a model is compiled (round budget, feasible init,
//     proposal tables — core.Compile via locsample.NewSampler) at most once
//     per (spec hash, algorithm, rounds, epsilon) while the entry stays in
//     the LRU; re-registering an identical spec or re-requesting the same
//     options never recompiles.
//   - Determinism over the wire: a draw for (spec, seed) returns chain i
//     bit-identical to a local Sample (MRFs) or SampleCSP (CSPs) with seed
//     ChainSeed(seed, i) — every flavor runs the compiled sampler's one
//     Draw. The server adds no randomness of its own when the client
//     supplies a seed.
package service

import (
	"container/list"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"

	"locsample"
	"locsample/internal/obs"
	"locsample/internal/spec"
	"locsample/internal/transport"
)

// Config bounds the registry.
type Config struct {
	// CacheSize is the compiled-sampler LRU capacity (default 64).
	CacheSize int
	// MaxModels bounds the number of registered specs (default 1024).
	MaxModels int
	// MaxK bounds the samples a single draw may request (default 4096).
	MaxK int
	// DefaultShards is the shard count draws run with when neither the
	// request nor the model's spec names one (default 0 = centralized).
	DefaultShards int
	// MaxShards bounds the per-request shard count (default 1024).
	MaxShards int
	// DefaultParallel is the vertex-parallel worker count centralized draws
	// run with when neither the request nor the model's spec names one
	// (default 0 = sequential rounds).
	DefaultParallel int
	// MaxParallel bounds the per-request vertex-parallel worker count
	// (default 1024).
	MaxParallel int
	// WorkerAddrs lists lsharded worker addresses. When non-empty, every
	// sharded draw places its shards across these processes instead of
	// in-process goroutines (the coordinator truncates the list to the
	// shard count so each worker hosts at least one shard). Empty means
	// all sharding stays in-process.
	WorkerAddrs []string
	// StandbyAddrs lists spare lsharded workers the coordinator may swap
	// into a failed worker's shard band mid-session (see
	// locsample.WithStandbyWorkers). Ignored without WorkerAddrs.
	StandbyAddrs []string
	// Retry overrides the retry/deadline/backoff policy coordinator draws
	// run with (nil means the locsample defaults).
	Retry *locsample.RetryPolicy
	// BreakerThreshold is the number of CONSECUTIVE coordinator draw
	// failures after which a model's circuit breaker opens and its draws
	// serve the bit-identical local fallback without trying the workers
	// (default 3).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker waits before admitting
	// a single probe draw back onto the coordinator (default 30s).
	BreakerCooldown time.Duration
	// Obs is the metrics registry the serving counters live in. Nil
	// means a private registry: the counters still run (they back
	// /statsz), they are just not shared with an exposition endpoint.
	Obs *obs.Registry
	// Traces retains completed draw traces for /debug/trace/{id}
	// (default: a fresh store holding the last 32).
	Traces *obs.TraceStore
	// Mixing retains the latest diagnosed-draw mixing summary per model
	// for /debug/mixing/{id} (default: a fresh store).
	Mixing *obs.MixingStore
	// Log receives the registry's structured logs (default: discard).
	Log *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.CacheSize <= 0 {
		c.CacheSize = 64
	}
	if c.MaxModels <= 0 {
		c.MaxModels = 1024
	}
	if c.MaxK <= 0 {
		c.MaxK = 4096
	}
	if c.MaxShards <= 0 {
		c.MaxShards = 1024
	}
	if c.MaxParallel <= 0 {
		c.MaxParallel = 1024
	}
	if c.BreakerThreshold <= 0 {
		c.BreakerThreshold = 3
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = 30 * time.Second
	}
	return c
}

// Model is one registered spec plus its serving counters.
type Model struct {
	// Hash is the spec's canonical content address — the model ID.
	Hash string
	// Spec is the validated spec.
	Spec *locsample.Spec
	// Built is the realized workload.
	Built *spec.Built
	// Registered is the first registration time.
	Registered time.Time

	// Per-model serving series, labeled model=<hash> in the registry's
	// metrics registry. /statsz snapshots read these same series (see
	// Stats), so the JSON counters and the /metrics exposition can
	// never drift apart.
	requests *obs.Counter
	samples  *obs.Counter
	errors   *obs.Counter
	drawNS   *obs.Histogram // end-to-end Draw latency, ns

	// Sharded-runtime counters: shardDraws counts chains that ran
	// shard-parallel; boundaryMsgs and boundaryVals total their exchange
	// traffic; barrierNS totals their round-barrier waits.
	shardDraws   *obs.Counter
	boundaryMsgs *obs.Counter
	boundaryVals *obs.Counter
	barrierNS    *obs.Counter

	// soaChains counts chains served through the SoA batch engine —
	// coalesced same-spec draws land there when the batch is wide enough,
	// so this series is how operators confirm the fast path is actually
	// taken.
	soaChains *obs.Counter

	// Degradation machinery: remote marks a model whose sharded draws
	// may run on the server's lsharded workers, breaker gates that path,
	// degraded counts draws the local fallback served instead.
	remote   bool
	breaker  *breaker
	degraded *obs.Counter
}

// ModelStats is a point-in-time snapshot of a model's counters.
type ModelStats struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Kind     string `json:"kind"`
	N        int    `json:"n"`
	M        int    `json:"m"`
	Q        int    `json:"q"`
	Requests int64  `json:"requests"`
	Samples  int64  `json:"samples"`
	Errors   int64  `json:"errors"`
	// DrawCount is the number of successful draws behind the latency
	// figures below.
	DrawCount int64 `json:"drawCount"`
	// LatencyMeanMS and the quantiles describe per-draw latency; the
	// quantiles come from a log-bucket histogram, so they carry at most
	// ~2× relative error.
	LatencyMeanMS float64 `json:"latencyMeanMs"`
	LatencyP50MS  float64 `json:"latencyP50Ms"`
	LatencyP95MS  float64 `json:"latencyP95Ms"`
	LatencyP99MS  float64 `json:"latencyP99Ms"`
	// ShardDraws counts chains drawn shard-parallel; the boundary and
	// barrier fields total their exchange traffic and round-barrier waits.
	ShardDraws       int64   `json:"shardDraws,omitempty"`
	BoundaryMessages int64   `json:"boundaryMessages,omitempty"`
	BoundaryValues   int64   `json:"boundaryValues,omitempty"`
	BarrierWaitMS    float64 `json:"barrierWaitMs,omitempty"`
	// SoAChains counts chains served through the SoA multi-chain batch
	// engine (batched draws wide enough for the lane kernels).
	SoAChains int64 `json:"soaChains,omitempty"`
	// DegradedDraws counts draws served by the bit-identical local
	// fallback after a coordinator failure (or while the breaker held
	// the coordinator path open-circuited).
	DegradedDraws int64 `json:"degradedDraws,omitempty"`
	// Breaker is the coordinator circuit state ("closed", "half-open",
	// "open"); empty when the server has no remote workers.
	Breaker string `json:"breaker,omitempty"`
}

// Stats reports the model's counters.
func (m *Model) Stats() ModelStats {
	q := 0
	if m.Built.MRF != nil {
		q = m.Built.MRF.Q
	} else if m.Built.CSP != nil {
		q = m.Built.CSP.Q
	}
	st := ModelStats{
		ID:               m.Hash,
		Name:             m.Spec.Name,
		Kind:             m.Spec.Model.Kind,
		N:                m.Built.Graph.N(),
		M:                m.Built.Graph.M(),
		Q:                q,
		Requests:         m.requests.Value(),
		Samples:          m.samples.Value(),
		Errors:           m.errors.Value(),
		DrawCount:        m.drawNS.Count(),
		ShardDraws:       m.shardDraws.Value(),
		BoundaryMessages: m.boundaryMsgs.Value(),
		BoundaryValues:   m.boundaryVals.Value(),
		BarrierWaitMS:    float64(m.barrierNS.Value()) / 1e6,
		SoAChains:        m.soaChains.Value(),
		DegradedDraws:    m.degraded.Value(),
	}
	if m.remote {
		st.Breaker = m.breaker.name()
	}
	if st.DrawCount > 0 {
		st.LatencyMeanMS = m.drawNS.Mean() / 1e6
		st.LatencyP50MS = m.drawNS.Quantile(0.50) / 1e6
		st.LatencyP95MS = m.drawNS.Quantile(0.95) / 1e6
		st.LatencyP99MS = m.drawNS.Quantile(0.99) / 1e6
	}
	return st
}

// compileKey identifies one compiled sampler: everything that feeds
// core.Compile. Seeds are deliberately absent — Draw reseeds a
// compiled sampler per request.
type compileKey struct {
	hash      string
	algorithm locsample.Algorithm
	rounds    int
	epsBits   uint64
	// shards is the resolved shard count, canonicalized so 0 and 1 (both
	// centralized) never split one workload across two cache entries.
	shards int
	// parallel is the resolved vertex-parallel worker count, canonicalized
	// the same way (0 and 1 both mean sequential rounds).
	parallel int
	// auto marks a measured-budget (rounds:"auto") compile — a distinct
	// workload from the same options with a fixed budget.
	auto bool
	// local forces a sharded compile to stay in-process even when the
	// server has remote workers — the degraded-fallback variant. The
	// samples are bit-identical either way; the flag only keys a second
	// cache entry so a broken coordinator never poisons the healthy one.
	local bool
}

// compiled is one cache entry: a compiled sampler, MRF or CSP — the
// service draws both through the same surface. Close releases its
// external resources (remote worker sessions); it is idempotent and safe
// while a draw still borrows the entry — a later draw simply reconnects.
type compiled struct {
	sampler interface {
		Draw(context.Context, locsample.DrawRequest) (*locsample.Batch, error)
		Shards() int
		ParallelRounds() int
		CapRounds() int
		Close() error
	}
}

// Registry is the model store and compiled-sampler cache. All methods are
// safe for concurrent use; draws themselves run outside the registry lock.
type Registry struct {
	cfg   Config
	start time.Time

	obs    *obs.Registry
	traces *obs.TraceStore
	mixing *obs.MixingStore
	log    *slog.Logger

	mu       sync.Mutex
	models   map[string]*Model
	order    []string // registration order, for stable listings
	lru      *list.List
	byKey    map[compileKey]*list.Element
	inflight map[compileKey]*compileCall
	// workers is the last ProbeWorkers result (nil before any probe).
	workers []WorkerStatus

	compiles    *obs.Counter
	cacheHits   *obs.Counter
	cacheMiss   *obs.Counter
	compileNS   *obs.Histogram
	modelsGauge *obs.Gauge
	// registerNS and registerCachedNS time successful registrations of
	// new and of already-registered specs.
	registerNS       *obs.Histogram
	registerCachedNS *obs.Histogram
	// inflightDraws is the queue-depth signal: draws currently executing
	// (including time spent waiting on a cold compile's singleflight).
	inflightDraws  *obs.Gauge
	tracedDraws    *obs.Counter
	diagnosedDraws *obs.Counter
}

type lruEntry struct {
	key compileKey
	c   *compiled
}

// compileCall is an in-flight compilation other requests for the same key
// wait on instead of compiling again (per-key singleflight). The fields
// are written before done is closed and read only after.
type compileCall struct {
	done chan struct{}
	c    *compiled
	err  error
}

// NewRegistry returns an empty registry.
func NewRegistry(cfg Config) *Registry {
	cfg = cfg.withDefaults()
	o := cfg.Obs
	if o == nil {
		// The serving counters always run (they back /statsz); an
		// unconfigured registry just keeps them private.
		o = obs.NewRegistry()
	}
	traces := cfg.Traces
	if traces == nil {
		traces = obs.NewTraceStore(0)
	}
	mixing := cfg.Mixing
	if mixing == nil {
		mixing = obs.NewMixingStore(0)
	}
	log := cfg.Log
	if log == nil {
		log = obs.NopLogger()
	}
	r := &Registry{
		cfg:      cfg,
		start:    time.Now(),
		obs:      o,
		traces:   traces,
		mixing:   mixing,
		log:      log,
		models:   make(map[string]*Model),
		lru:      list.New(),
		byKey:    make(map[compileKey]*list.Element),
		inflight: make(map[compileKey]*compileCall),
	}
	r.compiles = o.Counter("locserved_compiles_total", "sampler compilations (cold compile-cache keys)")
	r.cacheHits = o.Counter("locserved_cache_hits_total", "compiled-sampler cache hits")
	r.cacheMiss = o.Counter("locserved_cache_misses_total", "compiled-sampler cache misses")
	r.compileNS = o.Histogram("locserved_compile_seconds", "sampler compile time", 1e-9)
	r.modelsGauge = o.Gauge("locserved_models", "registered models")
	r.registerNS = o.Histogram("locserved_register_seconds", "spec registration time", 1e-9, "cached", "false")
	r.registerCachedNS = o.Histogram("locserved_register_seconds", "spec registration time", 1e-9, "cached", "true")
	r.inflightDraws = o.Gauge("locserved_inflight_draws", "draws currently executing")
	r.tracedDraws = o.Counter("locserved_traced_draws_total", "draws served with tracing enabled")
	r.diagnosedDraws = o.Counter("locserved_diagnosed_draws_total", "draws served with coupling diagnostics")
	return r
}

// Obs returns the registry's metrics registry (for mounting /metrics).
func (r *Registry) Obs() *obs.Registry { return r.obs }

// Traces returns the completed-trace store (for /debug/trace/{id}).
func (r *Registry) Traces() *obs.TraceStore { return r.traces }

// Mixing returns the mixing-summary store (for /debug/mixing/{id}).
func (r *Registry) Mixing() *obs.MixingStore { return r.mixing }

// Logger returns the registry's logger.
func (r *Registry) Logger() *slog.Logger { return r.log }

// Compiles returns the number of sampler compilations performed so far —
// the observable the cache tests pin to zero across repeat registrations
// and repeat draws.
func (r *Registry) Compiles() int64 { return r.compiles.Value() }

// newModelMetrics wires a model's serving series into the registry's
// metrics registry. Re-registrations of the same hash get the same
// underlying series (the registry deduplicates by name+labels), so a
// lost registration race never forks a model's counters.
func (r *Registry) newModelMetrics(m *Model) {
	o := r.obs
	m.requests = o.Counter("locserved_requests_total", "draw requests", "model", m.Hash)
	m.samples = o.Counter("locserved_samples_total", "samples served", "model", m.Hash)
	m.errors = o.Counter("locserved_errors_total", "failed draw requests", "model", m.Hash)
	m.drawNS = o.Histogram("locserved_draw_seconds", "end-to-end draw latency", 1e-9, "model", m.Hash)
	m.shardDraws = o.Counter("locserved_shard_draws_total", "chains drawn shard-parallel", "model", m.Hash)
	m.boundaryMsgs = o.Counter("locserved_boundary_messages_total", "sharded boundary messages", "model", m.Hash)
	m.boundaryVals = o.Counter("locserved_boundary_values_total", "sharded boundary vertex states", "model", m.Hash)
	m.barrierNS = o.Counter("locserved_barrier_wait_ns_total", "sharded round-barrier wait, ns", "model", m.Hash)
	m.soaChains = o.Counter("locserved_soa_chains_total", "chains served through the SoA batch engine", "model", m.Hash)
	// The degradation series exist from registration (at 0, closed) so
	// dashboards and the CI smoke can always find them.
	m.remote = len(r.cfg.WorkerAddrs) > 0
	m.degraded = o.Counter("locserved_degraded_draws_total", "draws served by the local fallback after a coordinator failure", "model", m.Hash)
	m.breaker = newBreaker(r.cfg.BreakerThreshold, r.cfg.BreakerCooldown,
		o.Gauge("locserved_breaker_state", "coordinator circuit state (0 closed, 1 half-open, 2 open)", "model", m.Hash))
}

// Register decodes, validates, builds, and stores a spec, eagerly
// compiling its default sampler so the first draw pays no compile either.
// The model becomes visible only after that compile succeeds: a spec the
// default options cannot serve fails registration and is never observable
// (no success-then-404 window for concurrent duplicate registrations).
// Registering a spec whose hash is already present is a cheap no-op that
// returns the existing model with cached = true. Successful registrations
// are timed in locserved_register_seconds{cached}.
func (r *Registry) Register(data []byte) (m *Model, cached bool, err error) {
	t0 := time.Now()
	m, cached, err = r.register(data)
	if err == nil {
		h := r.registerNS
		if cached {
			h = r.registerCachedNS
		}
		h.Observe(time.Since(t0).Nanoseconds())
	}
	return m, cached, err
}

func (r *Registry) register(data []byte) (m *Model, cached bool, err error) {
	// One pass decodes, validates and hashes; the build below trusts both.
	s, h, err := spec.DecodeHash(data)
	if err != nil {
		return nil, false, err
	}
	r.mu.Lock()
	if m, ok := r.models[h]; ok {
		r.mu.Unlock()
		return m, true, nil
	}
	if len(r.models) >= r.cfg.MaxModels {
		r.mu.Unlock()
		return nil, false, fmt.Errorf("service: model registry full (%d models)", r.cfg.MaxModels)
	}
	r.mu.Unlock()

	// Build and eagerly compile outside the lock — graph generation and
	// core.Compile can be heavy. Concurrent duplicate registrations
	// deduplicate the compile via the cache's singleflight.
	built, err := spec.BuildValid(s, h)
	if err != nil {
		return nil, false, err
	}
	m = &Model{Hash: h, Spec: s, Built: built, Registered: time.Now()}
	r.newModelMetrics(m)
	// A CSP spec may leave the round budget entirely to requests; there is
	// nothing to compile for it until a request supplies rounds.
	if built.CSP == nil || built.Rounds > 0 {
		if _, err := r.getCompiled(m, defaultDrawOptions(m)); err != nil {
			return nil, false, err
		}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	if prior, ok := r.models[h]; ok { // lost a registration race
		return prior, true, nil
	}
	if len(r.models) >= r.cfg.MaxModels {
		// The compiled entry stays in the LRU; it is keyed by hash and
		// ages out naturally.
		return nil, false, fmt.Errorf("service: model registry full (%d models)", r.cfg.MaxModels)
	}
	r.models[h] = m
	r.order = append(r.order, h)
	r.modelsGauge.Set(int64(len(r.models)))
	r.log.Info("model registered", "model", h, "kind", s.Model.Kind, "n", built.Graph.N())
	return m, false, nil
}

// Lookup returns the model with the given ID (spec hash).
func (r *Registry) Lookup(id string) (*Model, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m, ok := r.models[id]
	return m, ok
}

// List returns all registered models in registration order.
func (r *Registry) List() []*Model {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Model, 0, len(r.order))
	for _, h := range r.order {
		out = append(out, r.models[h])
	}
	return out
}

// DrawOptions parameterize one draw request. Zero values mean "use the
// model's defaults".
type DrawOptions struct {
	// K is the number of independent samples (default 1).
	K int
	// Seed is the master seed; chain i runs with ChainSeed(Seed, i).
	Seed uint64
	// Algorithm overrides the chain ("glauber", "lubyglauber",
	// "localmetropolis", "scan", "chromatic"; MRF models only — CSPs accept
	// only spellings of lubyglauber).
	Algorithm string
	// Rounds overrides the round budget when positive.
	Rounds int
	// Epsilon overrides the total-variation target of the automatic round
	// budget when positive (MRF models only).
	Epsilon float64
	// Shards overrides the shard count every chain of the draw runs with
	// (0 falls back to the spec's default, then the server's). Sharding
	// never changes the samples — only how fast one chain advances. MRF
	// chains shard over graph partitions, CSP chains over constraint-scope
	// halos.
	Shards int
	// Parallel overrides the vertex-parallel worker count every chain's
	// rounds run with (0 falls back to the spec's default, then the
	// server's). Like Shards it never changes the samples, and the two are
	// mutually exclusive per draw.
	Parallel int
	// RoundsAuto replaces the worst-case round budget with one measured
	// by a grand coupling at compile time, capped by the budget the
	// options would otherwise resolve (the wire spelling is
	// rounds:"auto"). Draws under the measured budget are bit-identical
	// to explicit-rounds draws at the same seed and round count.
	RoundsAuto bool
	// Trace records a per-round timing trace of the draw (k must be 1),
	// retained in the registry's trace store; the result carries it and
	// its ID. The sample is bit-identical to an untraced draw with the
	// same options.
	Trace bool
	// Diagnose runs a grand coupling alongside the draw (k must be 1; not
	// with Trace): the result carries the mixing Diagnosis, whose summary
	// is retained for /debug/mixing/{id}. Chain 0 of the coupling, seeded
	// ChainSeed(Seed, 0), IS the draw, so the sample is bit-identical to
	// an undiagnosed draw with the same options. Diagnosed draws run the
	// coupling centralized and in-process, and check the context only
	// before they start.
	Diagnose bool
	// Probe, when non-nil, observes a diagnosed draw's coupling live, one
	// call per round (the SSE streaming endpoint passes one).
	Probe locsample.CouplingProbe
}

// DrawResult is one served batch.
type DrawResult struct {
	// Samples[i] is chain i's configuration.
	Samples [][]int
	// Rounds is the per-chain round budget that ran.
	Rounds int
	// TheoryRounds is the automatic budget (0 when rounds were pinned).
	TheoryRounds int
	// Algorithm is the chain that ran.
	Algorithm string
	// Shards is the shard count each chain ran with (1 = centralized).
	Shards int
	// Parallel is the vertex-parallel worker count each chain's rounds ran
	// with (1 = sequential rounds).
	Parallel int
	// Shard aggregates the sharded runtime's profile across the batch
	// (zero when centralized).
	Shard locsample.ShardStats
	// Elapsed is the draw's wall-clock time.
	Elapsed time.Duration
	// Trace is a traced draw's recorded trace and TraceID its ID,
	// fetchable at /debug/trace/{id}; nil and empty otherwise.
	Trace   *obs.Trace
	TraceID string
	// Diagnosis is a diagnosed draw's mixing report (nil otherwise).
	Diagnosis *locsample.Diagnosis
	// CapRounds is the worst-case budget a rounds:"auto" compile was
	// capped by (0 for fixed-budget draws).
	CapRounds int
	// SoAWidth is the lane width of the SoA batch engine the draw ran
	// through (0 when chains ran the per-chain reference path). The
	// samples are bit-identical either way.
	SoAWidth int
}

func defaultDrawOptions(m *Model) DrawOptions {
	opts := DrawOptions{K: 1}
	if m.Built.CSP != nil {
		opts.Rounds = m.Built.Rounds
	}
	return opts
}

// ParseAlgorithm maps a wire algorithm name to a chain.
func ParseAlgorithm(s string) (locsample.Algorithm, error) {
	switch strings.ToLower(s) {
	case "glauber":
		return locsample.Glauber, nil
	case "lubyglauber", "luby":
		return locsample.LubyGlauber, nil
	case "localmetropolis", "lm", "":
		return locsample.LocalMetropolis, nil
	case "scan", "systematicscan":
		return locsample.SystematicScan, nil
	case "chromatic", "chromaticglauber":
		return locsample.ChromaticGlauber, nil
	default:
		return 0, fmt.Errorf("service: unknown algorithm %q", s)
	}
}

// Draw serves one batch from m, compiling at most once per option set and
// counting request, sample, latency, and error metrics.
func (r *Registry) Draw(m *Model, opts DrawOptions) (*DrawResult, error) {
	return r.DrawContext(context.Background(), m, opts)
}

// DrawContext is Draw under a context: a canceled ctx (client
// disconnect, server drain) aborts the in-flight draw — local chains
// stop at the next round boundary, sharded engines are torn down, and
// coordinator sessions are closed — and the request fails with
// ctx.Err(). Cancellation never produces a partial batch. Every draw
// flavor — plain, traced, diagnosed, streamed — runs through here.
func (r *Registry) DrawContext(ctx context.Context, m *Model, opts DrawOptions) (*DrawResult, error) {
	r.inflightDraws.Add(1)
	res, err := r.draw(ctx, m, opts)
	r.inflightDraws.Add(-1)
	if res, err = r.finishDraw(m, res, err); err != nil {
		return nil, err
	}
	if res.Trace != nil {
		r.traces.Put(res.Trace)
		r.tracedDraws.Inc()
		res.TraceID = res.Trace.ID
		r.log.Info("traced draw", "model", m.Hash, "trace", res.TraceID, "elapsed", res.Elapsed)
	}
	if d := res.Diagnosis; d != nil {
		r.diagnosedDraws.Inc()
		r.mixing.Put(obs.MixingSummary{
			ID:               m.Hash,
			Seed:             opts.Seed,
			Chains:           d.Chains,
			Rounds:           d.Rounds,
			MaxRounds:        d.MaxRounds,
			Coalesced:        d.Coalesced,
			CoalescenceRound: d.CoalescenceRound,
			MeasuredRounds:   d.MeasuredRounds,
			TheoryRounds:     res.TheoryRounds,
			FinalDisagree:    lastDisagree(d),
		})
		r.log.Info("diagnosed draw", "model", m.Hash,
			"coalesced", d.Coalesced, "measured", d.MeasuredRounds,
			"rounds", d.Rounds, "elapsed", res.Elapsed)
	}
	return res, nil
}

func lastDisagree(d *locsample.Diagnosis) int {
	if n := len(d.Series.Disagree); n > 0 {
		return d.Series.Disagree[n-1]
	}
	return 0
}

// finishDraw books one finished draw into the model's serving series.
func (r *Registry) finishDraw(m *Model, res *DrawResult, err error) (*DrawResult, error) {
	m.requests.Inc()
	if err != nil {
		m.errors.Inc()
		r.log.Warn("draw failed", "model", m.Hash, "err", err)
		return nil, err
	}
	m.samples.Add(int64(len(res.Samples)))
	m.drawNS.Observe(res.Elapsed.Nanoseconds())
	if res.Shards > 1 {
		m.shardDraws.Add(int64(len(res.Samples)))
		m.boundaryMsgs.Add(res.Shard.BoundaryMessages)
		m.boundaryVals.Add(res.Shard.BoundaryValues)
		m.barrierNS.Add(res.Shard.BarrierWaitNS)
	}
	if res.SoAWidth > 0 {
		m.soaChains.Add(int64(len(res.Samples)))
	}
	return res, nil
}

// validateDrawOptions defaults k to 1 and range-checks the request-level
// knobs shared by every draw flavor (plain, traced, diagnosed, streamed).
func (r *Registry) validateDrawOptions(opts *DrawOptions) error {
	if opts.K == 0 {
		opts.K = 1
	}
	if opts.K < 1 || opts.K > r.cfg.MaxK {
		return fmt.Errorf("service: k must be in [1,%d], got %d", r.cfg.MaxK, opts.K)
	}
	if opts.Rounds < 0 {
		return fmt.Errorf("service: rounds must be >= 0, got %d", opts.Rounds)
	}
	if opts.Epsilon < 0 || opts.Epsilon >= 1 || math.IsNaN(opts.Epsilon) {
		return fmt.Errorf("service: epsilon must be in [0,1), got %v", opts.Epsilon)
	}
	if opts.Shards < 0 || opts.Shards > r.cfg.MaxShards {
		return fmt.Errorf("service: shards must be in [0,%d], got %d", r.cfg.MaxShards, opts.Shards)
	}
	if opts.Parallel < 0 || opts.Parallel > r.cfg.MaxParallel {
		return fmt.Errorf("service: parallel must be in [0,%d], got %d", r.cfg.MaxParallel, opts.Parallel)
	}
	if opts.Trace && opts.Diagnose {
		return fmt.Errorf("service: a draw is traced or diagnosed (streamed), not both")
	}
	if (opts.Trace || opts.Diagnose) && opts.K != 1 {
		return fmt.Errorf("service: traced and diagnosed draws run one chain; k must be 1, got %d", opts.K)
	}
	return nil
}

// ctxDone returns ctx.Err for possibly-nil contexts.
func ctxDone(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// remoteKey reports whether a compile key places its shards on the
// server's lsharded workers.
func (r *Registry) remoteKey(key compileKey) bool {
	return key.shards > 1 && !key.local && len(r.cfg.WorkerAddrs) > 0
}

func (r *Registry) draw(ctx context.Context, m *Model, opts DrawOptions) (*DrawResult, error) {
	if err := r.validateDrawOptions(&opts); err != nil {
		return nil, err
	}
	key, err := r.compileKeyFor(m, opts)
	if err != nil {
		return nil, err
	}
	// Diagnosed draws run their coupling in-process whatever the key, so
	// the coordinator's breaker has no say in them.
	if !r.remoteKey(key) || opts.Diagnose {
		return r.drawCompiled(ctx, m, key, opts)
	}
	// Coordinator-backed draw. The coordinator retries and replaces
	// workers inside the draw; the service layer handles the regime
	// where that budget loses anyway: a draw that still dies on a
	// worker fault degrades to the bit-identical local fallback instead
	// of failing the request, and the per-model breaker stops sending
	// draws into a known-broken fleet at all.
	if !m.breaker.allow() {
		return r.drawDegraded(ctx, m, key, opts, nil)
	}
	res, err := r.drawCompiled(ctx, m, key, opts)
	if err == nil {
		m.breaker.success()
		return res, nil
	}
	var we *locsample.WorkerError
	if !errors.As(err, &we) || ctxDone(ctx) != nil {
		// Not a worker fault (or the client is gone): the breaker has
		// no opinion and there is nothing to degrade to.
		return nil, err
	}
	m.breaker.failure()
	return r.drawDegraded(ctx, m, key, opts, err)
}

// drawDegraded serves a coordinator-keyed draw from the in-process
// fallback sampler — same spec, same seeds, bit-identical samples.
// cause is the worker fault that forced the detour (nil when the
// breaker short-circuited before trying).
func (r *Registry) drawDegraded(ctx context.Context, m *Model, key compileKey, opts DrawOptions, cause error) (*DrawResult, error) {
	local := key
	local.local = true
	res, err := r.drawCompiled(ctx, m, local, opts)
	if err != nil {
		return nil, err
	}
	m.degraded.Inc()
	r.log.Warn("degraded draw: coordinator unavailable, served locally",
		"model", m.Hash, "breaker", m.breaker.name(), "cause", cause)
	return res, nil
}

// drawCompiled runs one validated draw on the sampler the key names.
func (r *Registry) drawCompiled(ctx context.Context, m *Model, key compileKey, opts DrawOptions) (*DrawResult, error) {
	c, err := r.getCompiledKey(m, key, opts)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	batch, err := c.sampler.Draw(ctx, locsample.DrawRequest{
		Seed:     opts.Seed,
		K:        opts.K,
		Trace:    opts.Trace,
		Diagnose: opts.Diagnose,
		Probe:    opts.Probe,
	})
	if err != nil {
		return nil, err
	}
	res := &DrawResult{
		Samples:      batch.Samples,
		Rounds:       batch.Rounds,
		TheoryRounds: batch.TheoryRounds,
		Algorithm:    strings.ToLower(key.algorithm.String()),
		Shards:       c.sampler.Shards(),
		Parallel:     c.sampler.ParallelRounds(),
		Shard:        batch.Shard,
		Elapsed:      time.Since(start),
		CapRounds:    c.sampler.CapRounds(),
		SoAWidth:     batch.SoAWidth,
		Trace:        batch.Trace,
		Diagnosis:    batch.Diagnosis,
	}
	if opts.Diagnose {
		// Diagnosed draws run the coupling centralized.
		res.Shards, res.Parallel = 1, 1
	}
	return res, nil
}

// getCompiled returns the cached compiled sampler for (model, options),
// compiling and inserting it on a miss. The compile itself runs outside
// the registry lock so a cold key on one model never stalls cache hits,
// lookups, or stats for the rest of the server; concurrent requests for
// the same cold key wait on a per-key singleflight instead of compiling
// again.
func (r *Registry) getCompiled(m *Model, opts DrawOptions) (*compiled, error) {
	key, err := r.compileKeyFor(m, opts)
	if err != nil {
		return nil, err
	}
	return r.getCompiledKey(m, key, opts)
}

// getCompiledKey is getCompiled for an already-resolved key (the draw
// path resolves keys itself to route between the coordinator and the
// degraded-fallback variants).
func (r *Registry) getCompiledKey(m *Model, key compileKey, opts DrawOptions) (*compiled, error) {
	r.mu.Lock()
	if el, ok := r.byKey[key]; ok {
		r.lru.MoveToFront(el)
		r.cacheHits.Inc()
		r.mu.Unlock()
		return el.Value.(*lruEntry).c, nil
	}
	if call, ok := r.inflight[key]; ok {
		r.mu.Unlock()
		<-call.done
		if call.err == nil {
			r.cacheHits.Inc()
		}
		return call.c, call.err
	}
	call := &compileCall{done: make(chan struct{})}
	r.inflight[key] = call
	r.cacheMiss.Inc()
	r.mu.Unlock()

	compileStart := time.Now()
	c, err := r.compile(m, key, opts)
	if err == nil {
		r.compileNS.Observe(time.Since(compileStart).Nanoseconds())
		r.log.Debug("sampler compiled", "model", m.Hash, "elapsed", time.Since(compileStart))
	}

	r.mu.Lock()
	delete(r.inflight, key)
	if err == nil {
		el := r.lru.PushFront(&lruEntry{key: key, c: c})
		r.byKey[key] = el
		for r.lru.Len() > r.cfg.CacheSize {
			oldest := r.lru.Back()
			r.lru.Remove(oldest)
			entry := oldest.Value.(*lruEntry)
			delete(r.byKey, entry.key)
			entry.c.sampler.Close()
		}
	}
	r.mu.Unlock()
	call.c, call.err = c, err
	close(call.done)
	return c, err
}

func (r *Registry) compileKeyFor(m *Model, opts DrawOptions) (compileKey, error) {
	key := compileKey{hash: m.Hash, rounds: opts.Rounds, epsBits: math.Float64bits(opts.Epsilon), auto: opts.RoundsAuto}
	if m.Built.CSP != nil {
		if opts.Algorithm != "" {
			// Accept any spelling of the one chain CSPs run.
			if a, err := ParseAlgorithm(opts.Algorithm); err != nil || a != locsample.LubyGlauber {
				return key, fmt.Errorf("service: csp models only support the lubyglauber chain, got %q", opts.Algorithm)
			}
		}
		if opts.Epsilon != 0 {
			// No theory budget exists for CSPs, so epsilon has no effect;
			// accepting it would silently split one workload across cache
			// entries.
			return key, fmt.Errorf("service: csp models have no epsilon budget; supply rounds instead")
		}
		if opts.Rounds == 0 {
			key.rounds = m.Built.Rounds
		}
		if key.rounds <= 0 {
			return key, fmt.Errorf("service: csp model has no default round budget; supply rounds")
		}
		key.algorithm = locsample.LubyGlauber
		key.shards, key.parallel = r.resolveRuntime(m, opts)
		return key, nil
	}
	a, err := ParseAlgorithm(opts.Algorithm)
	if err != nil {
		return key, err
	}
	key.algorithm = a
	key.shards, key.parallel = r.resolveRuntime(m, opts)
	return key, nil
}

// resolveRuntime resolves the in-chain runtime of a draw — shard count and
// vertex-parallel worker count — as request > spec serving default > server
// default, identically for MRF and CSP models. 1 and 0 both mean
// centralized; canonicalizing to 0 keeps one workload on one cache entry.
// The server-wide default is clamped to the model's vertex count (a blanket
// -shards 8 must not make every draw of a 4-vertex model fail); explicit
// request values are not — the client asked for something impossible and
// should hear so.
//
// The two runtimes are mutually exclusive per draw, and the request
// outranks every default: a request that explicitly picks one runtime
// suppresses the DEFAULTS of the other (a parallel request on a spec whose
// serving default is shards runs parallel, and vice versa). Only a request
// naming both reaches the engine's mutual-exclusion error.
func (r *Registry) resolveRuntime(m *Model, opts DrawOptions) (shards, parallel int) {
	shards = opts.Shards
	if shards == 0 && opts.Parallel <= 1 {
		shards = m.Built.Shards
		if shards == 0 {
			shards = r.cfg.DefaultShards
			if n := m.Built.Graph.N(); shards > n {
				shards = n
			}
		}
	}
	if shards <= 1 {
		shards = 0
	}
	parallel = opts.Parallel
	if parallel == 0 && shards == 0 {
		parallel = m.Built.Parallel
		if parallel == 0 {
			parallel = r.cfg.DefaultParallel
		}
	}
	if parallel <= 1 {
		parallel = 0
	}
	return shards, parallel
}

// compile does the actual compilation work; it is called without r.mu
// held (the caller serializes same-key compiles via the singleflight).
func (r *Registry) compile(m *Model, key compileKey, opts DrawOptions) (*compiled, error) {
	sopts := append(r.commonOptions(), locsample.WithAlgorithm(key.algorithm))
	if key.rounds > 0 {
		sopts = append(sopts, locsample.WithRounds(key.rounds))
	}
	if opts.Epsilon > 0 {
		sopts = append(sopts, locsample.WithEpsilon(opts.Epsilon))
	}
	if key.shards > 1 {
		sopts = append(sopts, locsample.WithShards(key.shards))
		if !key.local {
			sopts = append(sopts, r.remoteOptions(m, key.shards)...)
		}
	}
	if key.parallel > 1 {
		sopts = append(sopts, locsample.WithParallelRounds(key.parallel))
	}
	if key.auto {
		// The coupling measures under the sampler's compile seed (the
		// service leaves it at 0), so the measured budget depends only
		// on (model, options) — per-request seeds still reseed draws.
		sopts = append(sopts, locsample.WithRoundsAuto())
	}
	r.compiles.Inc()
	if b := m.Built; b.CSP != nil {
		s, err := locsample.NewCSPSampler(b.Graph, b.CSP, b.Init, sopts...)
		if err != nil {
			return nil, err
		}
		return &compiled{sampler: s}, nil
	}
	s, err := locsample.NewSampler(m.Built.MRF, sopts...)
	if err != nil {
		return nil, err
	}
	return &compiled{sampler: s}, nil
}

// commonOptions are the observability options every compiled sampler
// gets: the registry's logger always, and — when the server was
// configured with a shared metrics registry — the sampler-level
// metric series (draw/round histograms, worker gauges).
func (r *Registry) commonOptions() []locsample.Option {
	opts := []locsample.Option{locsample.WithLogger(r.log)}
	if r.cfg.Obs != nil {
		opts = append(opts, locsample.WithMetrics(r.obs))
	}
	return opts
}

// remoteOptions places a sharded compile on the server's lsharded
// workers when any are configured. The worker list is truncated to the
// shard count (every worker must host at least one shard); the model
// ships as its registered spec, so the workers rebuild exactly the
// registered workload.
func (r *Registry) remoteOptions(m *Model, shards int) []locsample.Option {
	addrs := r.cfg.WorkerAddrs
	if len(addrs) == 0 {
		return nil
	}
	if len(addrs) > shards {
		addrs = addrs[:shards]
	}
	opts := []locsample.Option{
		locsample.WithRemoteWorkers(addrs...),
		locsample.WithModelSpec(m.Spec),
	}
	if len(r.cfg.StandbyAddrs) > 0 {
		opts = append(opts, locsample.WithStandbyWorkers(r.cfg.StandbyAddrs...))
	}
	if r.cfg.Retry != nil {
		opts = append(opts, locsample.WithRetryPolicy(*r.cfg.Retry))
	}
	return opts
}

// WorkerStatus is one worker-probe result; see ProbeWorkers.
type WorkerStatus struct {
	Addr     string `json:"addr"`
	Standby  bool   `json:"standby,omitempty"`
	Up       bool   `json:"up"`
	Draining bool   `json:"draining,omitempty"`
	Error    string `json:"error,omitempty"`
}

// ProbeWorkers pings every configured lsharded worker — live and
// standby — over the control protocol and records the result: the
// locserved_worker_up{addr} gauge flips per address, unreachable
// workers are logged immediately, and the probe snapshot is exposed in
// Stats (/statsz). lserved runs one probe at startup so a mistyped or
// down worker is visible before the first draw discovers it; callers
// may re-probe at any time. A server with no workers returns nil.
func (r *Registry) ProbeWorkers(timeout time.Duration) []WorkerStatus {
	if timeout <= 0 {
		timeout = 2 * time.Second
	}
	probe := func(addr string, standby bool) WorkerStatus {
		st := WorkerStatus{Addr: addr, Standby: standby}
		pong, err := transport.Ping(addr, timeout)
		if err != nil {
			st.Error = err.Error()
			r.log.Warn("worker unreachable", "addr", addr, "standby", standby, "err", err)
		} else {
			st.Up = true
			st.Draining = pong.Draining
			r.log.Info("worker up", "addr", addr, "standby", standby, "draining", pong.Draining)
		}
		up := int64(0)
		if st.Up {
			up = 1
		}
		r.obs.Gauge("locserved_worker_up", "1 while the worker answers control pings", "addr", addr).Set(up)
		return st
	}
	var out []WorkerStatus
	for _, a := range r.cfg.WorkerAddrs {
		out = append(out, probe(a, false))
	}
	for _, a := range r.cfg.StandbyAddrs {
		out = append(out, probe(a, true))
	}
	r.mu.Lock()
	r.workers = out
	r.mu.Unlock()
	return out
}

// RegistryStats is the /statsz payload.
type RegistryStats struct {
	UptimeSeconds float64      `json:"uptimeSeconds"`
	Models        int          `json:"models"`
	Cache         CacheStats   `json:"cache"`
	PerModel      []ModelStats `json:"perModel"`
	// Workers is the latest worker-probe snapshot (absent when the
	// server has no remote workers or no probe has run).
	Workers []WorkerStatus `json:"workers,omitempty"`
}

// CacheStats reports the compiled-sampler cache counters.
type CacheStats struct {
	Size     int   `json:"size"`
	Capacity int   `json:"capacity"`
	Hits     int64 `json:"hits"`
	Misses   int64 `json:"misses"`
	Compiles int64 `json:"compiles"`
}

// Stats snapshots the registry.
func (r *Registry) Stats() RegistryStats {
	models := r.List()
	r.mu.Lock()
	size := r.lru.Len()
	workers := append([]WorkerStatus(nil), r.workers...)
	r.mu.Unlock()
	st := RegistryStats{
		UptimeSeconds: time.Since(r.start).Seconds(),
		Models:        len(models),
		Cache: CacheStats{
			Size:     size,
			Capacity: r.cfg.CacheSize,
			Hits:     r.cacheHits.Value(),
			Misses:   r.cacheMiss.Value(),
			Compiles: r.compiles.Value(),
		},
		Workers: workers,
	}
	for _, m := range models {
		st.PerModel = append(st.PerModel, m.Stats())
	}
	sort.Slice(st.PerModel, func(i, j int) bool { return st.PerModel[i].ID < st.PerModel[j].ID })
	return st
}
