// Round kernels for the hypergraph chains over CSPs, in the style of the
// MRF kernels in internal/chains: one Kernel runs each chain's round over a
// Band, randomness streams through partial round keys (rng.Key) keyed by
// global vertex and constraint IDs, proposals draw from precomputed
// cumulative activity tables (CategoricalCumU), constraint evaluation is
// compiled-table index arithmetic, and every working buffer lives in the
// Kernel — the steady-state rounds allocate nothing.
//
// The runtimes differ only in how they drive a Kernel: sequential rounds
// run it over the centralized band, vertex-parallel rounds fan each phase
// (β-fill / resample for LubyGlauber; propose / constraint-filter / accept
// for LocalMetropolis) over contiguous index ranges with a barrier between
// phases, and the sharded runtime (internal/cluster) runs one Kernel per
// shard band before each halo exchange. All three give the same draw
// because all randomness is keyed by global IDs (never local index or
// visitation order), each phase reads only state frozen by the previous
// barrier, and phase writes are disjoint per index. The one in-place phase
// — LubyGlauber's resample — writes only members of the Luby strongly
// independent set, no two of which share a constraint, so no resampled
// vertex's marginal reads another resampled vertex.
package csp

import (
	"time"

	"locsample/internal/graph"
	"locsample/internal/rng"
)

// PRF key tags for the deterministic round functions (distinct from the
// chains package tags so MRF and CSP streams never collide).
const (
	TagBeta   = 0x3001
	TagUpdate = 0x3002
	TagCoin   = 0x3003
)

// phase is one barrier-separated step of a round (see graph.Phase).
type phase = graph.Phase[*Kernel]

// The rounds, as phase lists.
var (
	lubyRound = []phase{
		{Span: graph.Local, Run: (*Kernel).fillBeta},
		{Span: graph.Owned, Run: (*Kernel).resample},
	}
	metropolisRound = []phase{
		{Span: graph.Local, Run: (*Kernel).propose},
		{Span: graph.Items, Run: (*Kernel).filter},
		{Span: graph.Owned, Run: (*Kernel).accept},
	}
)

// Kernel runs one CSP chain's LubyGlauber or LocalMetropolis rounds over a
// band: the only implementation of those rounds, driven by every runtime
// (see the comment above). A Kernel holds the round's buffers and is not
// safe for concurrent Rounds.
type Kernel struct {
	c       *CSP
	b       *Band
	phases  []phase
	workers int

	beta []float64 // Luby-step priorities, per local vertex
	prop []int     // proposals, per local vertex
	pass []bool    // check outcomes, per local constraint
	// margs[w]/mss[w] are worker w's marginal and fallback scratch
	// (hoisted table indexes plus the closure gather buffer).
	margs [][]float64
	mss   []margScratch
	flips []int

	// The round in progress.
	x          []int
	kb, ku, kc rng.RoundKey
}

// Scratch is a Kernel over a CSP's centralized band. The package-level
// round functions take one and pick their chain per call; a Scratch serves
// one chain at a time, so pool them to serve concurrent draws.
type Scratch = Kernel

// NewScratch returns a Scratch for CSP c. The LocalMetropolis-only buffers
// (proposals, per-constraint pass bits) are allocated on first use, so the
// LubyGlauber serving path never carries them.
func NewScratch(c *CSP) *Scratch {
	return (&Kernel{b: &c.band}).use(c, false, 1)
}

// NewKernel returns a Kernel running the LubyGlauber chain, or the
// LocalMetropolis chain when metropolis is set, over band b of c, with each
// phase fanned over workers goroutines when workers > 1.
func NewKernel(c *CSP, b *Band, metropolis bool, workers int) *Kernel {
	k := &Kernel{c: c, b: b}
	k.setRound(metropolis, min(max(workers, 1), max(b.NLocal(), 1)))
	return k
}

// use points a Scratch at c's centralized band and chain for one
// package-level round call.
func (k *Kernel) use(c *CSP, metropolis bool, workers int) *Kernel {
	k.c, k.b = c, &c.band
	k.setRound(metropolis, workers)
	return k
}

// setRound selects the chain's round and sizes the buffers it needs for
// the given worker count.
func (k *Kernel) setRound(metropolis bool, workers int) {
	k.phases, k.workers = lubyRound, workers
	if metropolis {
		k.phases = metropolisRound
		if k.prop == nil {
			k.prop = make([]int, k.b.NLocal())
			k.pass = make([]bool, len(k.b.ConID))
		}
	} else if k.beta == nil {
		k.beta = make([]float64, k.b.NLocal())
	}
	for len(k.margs) < workers {
		k.margs = append(k.margs, make([]float64, k.c.Q))
		k.mss = append(k.mss, newMargScratch(k.c))
	}
	if len(k.flips) < workers {
		k.flips = make([]int, workers)
	}
}

// Round advances the band-local configuration x (owned band then halo) by
// one round at the given seed and round number, and returns how many owned
// vertices took a new value. Halo values are read, never written.
func (k *Kernel) Round(x []int, seed uint64, round int) int {
	r := uint64(round)
	k.x = x
	k.kb, k.ku, k.kc = rng.Key(seed, TagBeta, r), rng.Key(seed, TagUpdate, r), rng.Key(seed, TagCoin, r)
	b := k.b
	return graph.RunRound(k, k.phases, [3]int{b.NLocal(), b.NOwned, len(b.ConID)}, k.workers, k.flips)
}

// fillBeta draws the Luby-step priorities of local vertices [lo, hi).
func (k *Kernel) fillBeta(_, lo, hi int) int {
	k.kb.FillFloat64sAt(k.beta[lo:hi], k.b.Global[lo:hi])
	return 0
}

// resample is the hypergraph LubyGlauber update over owned vertices
// [lo, hi): winners are strict local maxima of β over Γ(v) and redraw from
// their conditional marginals. Winners are strongly independent (no two
// share a constraint), so the in-place writes are exact.
func (k *Kernel) resample(w, lo, hi int) int {
	c, b, x, beta, ku := k.c, k.b, k.x, k.beta, k.ku
	marg, ms := k.margs[w], &k.mss[w]
	rowPtr, nbr, ids := b.RowPtr, b.Nbr, b.Global
	flips := 0
	for v := lo; v < hi; v++ {
		if !graph.BetaLocalMax(beta, v, nbr[rowPtr[v]:rowPtr[v+1]]) {
			continue
		}
		if c.marginalInto(b, v, x, marg, ms) {
			x[v] = rng.CategoricalU(marg, ku.Float64(uint64(ids[v])))
			flips++
		}
	}
	return flips
}

// propose draws the proposals σ_v ∝ b_v of local vertices [lo, hi)
// through the deduplicated cumulative proposal tables.
func (k *Kernel) propose(_, lo, hi int) int {
	c, prop, ku := k.c, k.prop[lo:hi], k.ku
	for i, gv := range k.b.Global[lo:hi] {
		d := c.propOf[gv]
		prop[i] = rng.CategoricalCumU(c.propDist[d], c.propCum[d], ku.Float64(uint64(gv)))
	}
	return 0
}

// filter runs the LocalMetropolis checks for local constraint slots
// [lo, hi): a constraint passes iff its shared coin PRF(seed, TagCoin, ci,
// round) falls below its check probability. A cut-scope constraint is
// checked on every shard it touches, from the same coin and the same
// (owned + halo) values, so all agree.
func (k *Kernel) filter(w, lo, hi int) int {
	c, b, x, prop, pass, kc, eval := k.c, k.b, k.x, k.prop, k.pass, k.kc, k.mss[w].eval
	for slot := lo; slot < hi; slot++ {
		ci := b.ConID[slot]
		p := c.checkProbOn(int(ci), x, prop, b.Scope(slot), eval)
		pass[slot] = kc.Float64(uint64(ci)) < p
	}
	return 0
}

// accept applies the LocalMetropolis acceptance rule over owned vertices
// [lo, hi).
func (k *Kernel) accept(_, lo, hi int) int {
	return acceptPass(k.b, k.x, k.prop, k.pass, lo, hi)
}

// acceptPass applies the LocalMetropolis acceptance rule over owned
// vertices [lo, hi) of b: v adopts its proposal iff every constraint
// containing it passed. It returns the number of acceptances.
func acceptPass(b *Band, x, prop []int, pass []bool, lo, hi int) int {
	flips := 0
	for v := lo; v < hi; v++ {
		ok := true
		for _, slot := range b.Cons(v) {
			if !pass[slot] {
				ok = false
				break
			}
		}
		if ok {
			x[v] = prop[v]
			flips++
		}
	}
	return flips
}

// LubyGlauberRoundPRF advances x by one hypergraph LubyGlauber round with
// randomness derived from (seed, round) — the replayable form used by the
// distributed protocol in internal/dist and by every runtime above this
// package. Winners are strict local maxima of β over the hypergraph
// neighborhood; because winners are strongly independent (no two share a
// constraint), in-place resampling is exact.
func LubyGlauberRoundPRF(c *CSP, x []int, seed uint64, round int, sc *Scratch) {
	sc.use(c, false, 1).Round(x, seed, round)
}

// LocalMetropolisRoundPRF advances x by one CSP LocalMetropolis round with
// PRF randomness: proposals keyed by (TagUpdate, v, round), constraint coins
// by (TagCoin, constraint, round).
func LocalMetropolisRoundPRF(c *CSP, x []int, seed uint64, round int, sc *Scratch) {
	sc.use(c, true, 1).Round(x, seed, round)
}

// LubyGlauberRoundParallel is LubyGlauberRoundPRF with both phases fanned
// over workers: β-fill, then membership + resample with per-worker
// marginal scratch.
func LubyGlauberRoundParallel(c *CSP, x []int, seed uint64, round int, sc *Scratch, workers int) {
	sc.use(c, false, workers).Round(x, seed, round)
}

// LocalMetropolisRoundParallel is LocalMetropolisRoundPRF with its three
// phases fanned over workers: propose over vertex ranges, constraint-filter
// over constraint ranges, accept over vertex ranges.
func LocalMetropolisRoundParallel(c *CSP, x []int, seed uint64, round int, sc *Scratch, workers int) {
	sc.use(c, true, workers).Round(x, seed, round)
}

// Chain owns one CSP chain's state and advances it deterministically from
// a seed — the CSP counterpart of chains.Sampler, with the same surface
// (Reset, Step, Run, X, Obs, Abort). It runs the hypergraph LubyGlauber
// rounds over the centralized band, each round's phases fanned over
// workers goroutines when workers > 1; the trajectory is the same at every
// worker count. Reset rewinds it without reallocating, so one Chain serves
// any number of draws allocation-free.
type Chain struct {
	X []int
	graph.Hooks

	k     *Kernel
	seed  uint64
	round int
}

// NewChain returns a Chain over c starting from init (copied).
func NewChain(c *CSP, init []int, seed uint64, workers int) *Chain {
	if len(init) != c.N {
		panic("csp: initial configuration has wrong length")
	}
	return &Chain{
		X:    append([]int(nil), init...),
		k:    NewKernel(c, &c.band, false, workers),
		seed: seed,
	}
}

// Reset rewinds the chain to round 0 with a new initial configuration
// (copied) and seed.
func (s *Chain) Reset(init []int, seed uint64) {
	if len(init) != len(s.X) {
		panic("csp: initial configuration has wrong length")
	}
	copy(s.X, init)
	s.seed = seed
	s.round = 0
}

// Step advances the chain by one round, reporting to Obs like
// chains.Sampler.Step (shard 0, flips uncounted).
func (s *Chain) Step() {
	if s.Obs != nil {
		t0 := time.Now()
		s.k.Round(s.X, s.seed, s.round)
		s.Obs.RoundDone(0, s.round, time.Since(t0).Nanoseconds(), 0, -1)
	} else {
		s.k.Round(s.X, s.seed, s.round)
	}
	s.round++
}

// Run advances the chain by t rounds, polling Abort at round boundaries.
func (s *Chain) Run(t int) {
	for i := 0; i < t; i++ {
		if s.Abort != nil && s.Abort.Load() {
			return
		}
		s.Step()
	}
}

// --- Source-driven chains (sequential baselines) -----------------------

// Sampler runs the hypergraph chains on a CSP from a sequential random
// stream. Create one with NewSampler; it owns its configuration and scratch
// space.
type Sampler struct {
	C *CSP
	X []int
	r *rng.Source

	beta []float64
	marg []float64
	prop []int
	pass []bool
	ms   margScratch
}

// NewSampler returns a Sampler with the given initial configuration (copied)
// and seed.
func NewSampler(c *CSP, init []int, seed uint64) *Sampler {
	if len(init) != c.N {
		panic("csp: initial configuration has wrong length")
	}
	s := &Sampler{
		C:    c,
		X:    append([]int(nil), init...),
		r:    rng.New(seed),
		beta: make([]float64, c.N),
		marg: make([]float64, c.Q),
		prop: make([]int, c.N),
		pass: make([]bool, len(c.Cons)),
		ms:   newMargScratch(c),
	}
	return s
}

// GlauberStep performs one single-site heat-bath update at a uniformly
// random vertex (the sequential baseline).
func (s *Sampler) GlauberStep() {
	v := s.r.Intn(s.C.N)
	if s.C.marginalInto(&s.C.band, v, s.X, s.marg, &s.ms) {
		s.X[v] = s.r.Categorical(s.marg)
	}
}

// LubyGlauberStep performs one round of the hypergraph LubyGlauber chain:
// every vertex draws β_v ∈ [0,1]; vertices that are strict local maxima over
// their hypergraph neighborhood Γ(v) form a strongly independent set and
// resample from their conditional marginals simultaneously.
func (s *Sampler) LubyGlauberStep() {
	c := s.C
	for v := 0; v < c.N; v++ {
		s.beta[v] = s.r.Float64()
	}
	// Strongly independent vertices never share a constraint, so no updated
	// vertex reads another updated vertex: in-place resampling is exact.
	for v := 0; v < c.N; v++ {
		if !graph.BetaLocalMax(s.beta, v, c.Neighborhood(v)) {
			continue
		}
		if c.marginalInto(&c.band, v, s.X, s.marg, &s.ms) {
			s.X[v] = s.r.Categorical(s.marg)
		}
	}
}

// LocalMetropolisStep performs one round of the CSP LocalMetropolis chain:
// all vertices propose independently from their normalized activities, each
// constraint passes its check with probability CheckProb, and a vertex
// accepts its proposal iff all constraints containing it pass.
func (s *Sampler) LocalMetropolisStep() {
	c := s.C
	for v := 0; v < c.N; v++ {
		c.ProposalDistInto(v, s.marg)
		s.prop[v] = s.r.Categorical(s.marg)
	}
	for ci := range c.Cons {
		s.pass[ci] = s.r.Float64() < c.checkProbOn(ci, s.X, s.prop, c.scope(int32(ci)), s.ms.eval)
	}
	acceptPass(&c.band, s.X, s.prop, s.pass, 0, c.N)
}
