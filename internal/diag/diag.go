// Package diag is the statistical-observability layer: where internal/obs
// reports what the CPUs are doing, diag reports what the distribution is
// doing. Its one primitive is the grand coupling the PRF substrate makes
// nearly free — because every variate a round consumes is keyed by
// (seed, tag, round, id), k chains started from different configurations
// but advanced under the same seed share every coin. Once two coupled
// chains agree they agree forever (identical state + identical coins ⇒
// identical update), so the first round at which all k chains collide is a
// measured, monotone mixing signal: after it, the chain provably cannot
// remember which of the k initial states it started from.
//
// Coupled advances such a family in lockstep and produces per-round series
// (maximum Hamming disagreement against chain 0, chain-0 flip counts and a
// flip-rate EWMA, per-shard compute/barrier attribution joined from an
// internal obs.RoundRecorder) plus a coalescence verdict. Chain 0 always
// runs from the caller's real initial configuration with the caller's real
// seed, so its final state IS a regular draw — bit-identical to an
// undiagnosed draw at the same seed, which is what lets the engines
// serve diagnosed draws without forking the determinism contract.
//
// Instrumentation discipline matches internal/obs: the per-round Probe is
// nil-gated, StepRound allocates nothing whether a probe is attached or
// not (alloc-gated in the tests), and all series buffers are sized at
// construction.
package diag

import (
	"fmt"

	"locsample/internal/chains"
	"locsample/internal/csp"
	"locsample/internal/mrf"
	"locsample/internal/obs"
	"locsample/internal/rng"
)

// TagInit keys the burn-in seeds of companion chains: companion j of a
// coupling with master seed s burns in under rng.PRF(s, TagInit, j) before
// rejoining the shared-coin trajectory. Disjoint from the chains (0x1xxx),
// csp (0x3xxx), and core batch (0x4001) tag spaces.
const TagInit = 0x5001

// BurnInRounds is the number of warm-up rounds a companion chain runs
// under its private TagInit seed when no structural adversarial start
// (color rotation) is available. The goal is only to decorrelate the
// companion from chain 0's start, not to mix it.
const BurnInRounds = 16

// DefaultChains is the coupling width used when Options.Chains is 0.
const DefaultChains = 4

// Probe receives one callback per coupled round — the live-streaming seam
// (the service's SSE endpoint is a Probe). Like chains.RoundObserver it is
// nil-gated and runs on the hot path of every round: implementations that
// share the alloc-gated contract must not allocate; implementations that
// deliberately do I/O (streaming) accept the cost knowingly.
//
// round is the 0-based round just completed; disagree is the maximum
// Hamming distance from chain 0 across companions (0 once coalesced);
// flips is chain 0's changed-vertex count this round; flipEWMA is the
// exponentially weighted flip rate (flips/n, α = 0.2).
type Probe interface {
	CouplingRound(round, disagree, flips int, flipEWMA float64)
}

// Options configure a coupled run.
type Options struct {
	// Chains is the coupling width k including chain 0 (default
	// DefaultChains; must be ≥ 2 — one chain has nothing to couple to).
	Chains int
	// MaxRounds bounds the run and sizes the series buffers (required).
	MaxRounds int
	// Probe, when non-nil, is invoked once per round.
	Probe Probe
	// Obs, when non-nil, additionally observes chain 0's rounds (teed with
	// the internal recorder) — the engines pass their metrics observer here
	// so diagnosed draws feed the same series as plain draws.
	Obs chains.RoundObserver
}

func (o Options) resolve() (Options, error) {
	if o.Chains == 0 {
		o.Chains = DefaultChains
	}
	if o.Chains < 2 {
		return o, fmt.Errorf("diag: coupling needs at least 2 chains, got %d", o.Chains)
	}
	if o.MaxRounds <= 0 {
		return o, fmt.Errorf("diag: MaxRounds must be positive, got %d", o.MaxRounds)
	}
	return o, nil
}

// Coupled advances a k-chain grand coupling and records its mixing series.
// Construct with NewCoupledMRF or NewCoupledCSP, advance with StepRound /
// Run / RunToCoalescence, read the draw from X, and summarize with Finish.
type Coupled struct {
	// ss[j] advances chain j one round and xs[j] is its live state — the
	// chains are chains.Samplers or csp.Chains constructed with one seed.
	// Only chain 0 carries an observer, so companion rounds are never
	// double-counted in the recorder or metrics.
	ss    []interface{ Step() }
	xs    [][]int
	n     int
	k     int
	max   int
	probe Probe
	rec   *obs.RoundRecorder

	prev     []int // chain 0's previous state, for flip counting
	disagree []int
	flips    []int
	ewma     []float64

	round       int
	coalescedAt int // first round index with zero disagreement; -1 until then
	ewmaVal     float64
}

// ewmaAlpha is the flip-rate EWMA smoothing factor.
const ewmaAlpha = 0.2

// newCoupled assembles a coupling over chains ss with live states xs, and
// installs the coupling's recorder (teed with o.Obs when non-nil) as
// chain 0's observer through hooks0.
func newCoupled(ss []interface{ Step() }, xs [][]int, hooks0 *chains.Hooks, o Options) *Coupled {
	rec := obs.NewRoundRecorder(1, o.MaxRounds)
	n := len(xs[0])
	d := &Coupled{
		ss:          ss,
		xs:          xs,
		n:           n,
		k:           o.Chains,
		max:         o.MaxRounds,
		probe:       o.Probe,
		rec:         rec,
		prev:        make([]int, n),
		disagree:    make([]int, o.MaxRounds),
		flips:       make([]int, o.MaxRounds),
		ewma:        make([]float64, o.MaxRounds),
		coalescedAt: -1,
	}
	copy(d.prev, xs[0])
	hooks0.Obs = rec
	if o.Obs != nil {
		hooks0.Obs = &obs.TeeRounds{A: rec, B: o.Obs}
	}
	return d
}

// NewCoupledMRF builds a k-chain coupling over model m. Chain 0 starts
// from init (copied) with the given seed — its trajectory is exactly the
// trajectory of a plain chains.Sampler with the same arguments. Companions
// start from adversarial configurations: for coloring models a cyclic
// color rotation of init (maximally disagreeing yet still proper), and
// otherwise — or when rotation breaks feasibility — a copy of init burned
// in for BurnInRounds under a private TagInit-derived seed. Every
// companion then advances under the shared master seed, which is what
// makes the coupling grand (and coalescence absorbing).
func NewCoupledMRF(m *mrf.MRF, init []int, seed uint64, alg chains.Algorithm, copts chains.Options, o Options) (*Coupled, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	if len(init) != m.G.N() {
		return nil, fmt.Errorf("diag: init length %d for %d vertices", len(init), m.G.N())
	}
	ss := make([]interface{ Step() }, o.Chains)
	xs := make([][]int, o.Chains)
	first := chains.NewSampler(m, init, seed, alg, copts)
	ss[0], xs[0] = first, first.X
	for j := 1; j < o.Chains; j++ {
		if rot := rotatedInit(m, init, j); rot != nil {
			s := chains.NewSampler(m, rot, seed, alg, copts)
			ss[j], xs[j] = s, s.X
			continue
		}
		// Burn-in fallback: advance a copy of init under a private seed,
		// then rewind the round counter onto the shared seed. The kernels
		// preserve feasibility (heat-bath resamples from the conditional
		// marginal; LocalMetropolis filters reject infeasible proposals),
		// so the companion's start is feasible whenever init is.
		s := chains.NewSampler(m, init, rng.PRF(seed, TagInit, uint64(j)), alg, copts)
		s.Run(BurnInRounds)
		s.Reset(s.X, seed)
		ss[j], xs[j] = s, s.X
	}
	return newCoupled(ss, xs, &first.Hooks, o), nil
}

// NewCoupledCSP builds a k-chain coupling over CSP c running the
// hypergraph LubyGlauber chain. Chain 0 starts from init (copied) with the
// given seed; companions are burned-in copies (CSPs have no structural
// rotation that is guaranteed to stay satisfying).
func NewCoupledCSP(c *csp.CSP, init []int, seed uint64, o Options) (*Coupled, error) {
	o, err := o.resolve()
	if err != nil {
		return nil, err
	}
	if len(init) != c.N {
		return nil, fmt.Errorf("diag: init length %d for %d vertices", len(init), c.N)
	}
	if !c.Feasible(init) {
		return nil, fmt.Errorf("diag: initial configuration is infeasible")
	}
	ss := make([]interface{ Step() }, o.Chains)
	xs := make([][]int, o.Chains)
	first := csp.NewChain(c, init, seed, 1)
	ss[0], xs[0] = first, first.X
	for j := 1; j < o.Chains; j++ {
		s := csp.NewChain(c, init, rng.PRF(seed, TagInit, uint64(j)), 1)
		s.Run(BurnInRounds)
		s.Reset(s.X, seed)
		ss[j], xs[j] = s, s.X
	}
	return newCoupled(ss, xs, &first.Hooks, o), nil
}

// rotatedInit returns companion j's color-rotated start for coloring
// models: every vertex shifts by the same nonzero offset mod q, which
// preserves properness (a proper coloring stays proper under any color
// permutation) while disagreeing with chain 0 at every vertex. Returns nil
// when the model is not a coloring, q < 2, or — belt and braces — the
// rotation is somehow infeasible.
func rotatedInit(m *mrf.MRF, init []int, j int) []int {
	if !m.IsColoringModel() || m.Q < 2 {
		return nil
	}
	shift := 1 + (j-1)%(m.Q-1) // nonzero offset in [1, q-1]
	rot := make([]int, len(init))
	for v, c := range init {
		rot[v] = (c + shift) % m.Q
	}
	if !m.Feasible(rot) {
		return nil
	}
	return rot
}

// StepRound advances the coupling one round and records the round's
// disagreement, flips, and EWMA (invoking the probe last). After
// coalescence only chain 0 advances — the companions are equal to it and,
// under shared coins, would stay equal; skipping them makes the
// post-coalescence tail of a diagnosed draw cost the same as a plain
// draw's. Allocation-free whether or not a probe is attached.
func (d *Coupled) StepRound() {
	if d.round >= d.max {
		return
	}
	coalesced := d.coalescedAt >= 0
	if coalesced {
		d.ss[0].Step()
	} else {
		for _, s := range d.ss {
			s.Step()
		}
	}
	r := d.round
	x0 := d.xs[0]
	fl := 0
	for v, xv := range x0 {
		if xv != d.prev[v] {
			fl++
			d.prev[v] = xv
		}
	}
	dis := 0
	if !coalesced {
		for j := 1; j < d.k; j++ {
			xj := d.xs[j]
			h := 0
			for v := range x0 {
				if x0[v] != xj[v] {
					h++
				}
			}
			if h > dis {
				dis = h
			}
		}
		if dis == 0 {
			d.coalescedAt = r
		}
	}
	rate := float64(fl) / float64(d.n)
	if r == 0 {
		d.ewmaVal = rate
	} else {
		d.ewmaVal = ewmaAlpha*rate + (1-ewmaAlpha)*d.ewmaVal
	}
	d.disagree[r] = dis
	d.flips[r] = fl
	d.ewma[r] = d.ewmaVal
	d.round++
	if d.probe != nil {
		d.probe.CouplingRound(r, dis, fl, d.ewmaVal)
	}
}

// Run advances the coupling t rounds (clamped to MaxRounds) — the
// full-budget mode diagnosed draws use: chain 0 always completes the
// compiled budget, so the draw is bit-identical to an undiagnosed one.
func (d *Coupled) Run(t int) {
	for i := 0; i < t && d.round < d.max; i++ {
		d.StepRound()
	}
}

// RunToCoalescence advances until all chains have collided or MaxRounds is
// exhausted, and returns MeasuredRounds — the measurement mode behind
// rounds:"auto".
func (d *Coupled) RunToCoalescence() int {
	for d.round < d.max && d.coalescedAt < 0 {
		d.StepRound()
	}
	return d.MeasuredRounds()
}

// X returns chain 0's live state (do not mutate; copy to keep).
func (d *Coupled) X() []int { return d.xs[0] }

// Round returns the number of rounds run so far.
func (d *Coupled) Round() int { return d.round }

// Coalesced reports whether all chains have collided.
func (d *Coupled) Coalesced() bool { return d.coalescedAt >= 0 }

// CoalescenceRound returns the first round index after which all chains
// were equal, or -1 while they still disagree.
func (d *Coupled) CoalescenceRound() int { return d.coalescedAt }

// MeasuredRounds is the coupling-measured round budget: the rounds needed
// to observe full coalescence (coalescence round + 1), or MaxRounds when
// the chains never collided within the cap — in which case the measurement
// degrades gracefully to the worst-case budget.
func (d *Coupled) MeasuredRounds() int {
	if d.coalescedAt >= 0 {
		return d.coalescedAt + 1
	}
	return d.max
}

// Recorder exposes the internal chain-0 round recorder (for grafting into
// traces). Read only after the run.
func (d *Coupled) Recorder() *obs.RoundRecorder { return d.rec }

// ShardSeries is one shard's per-round attribution within a Diagnosis.
// Centralized couplings have exactly one shard (0).
type ShardSeries struct {
	Shard     int     `json:"shard"`
	ComputeNS []int64 `json:"computeNs"`
	BarrierNS []int64 `json:"barrierNs"`
}

// Series holds the per-round mixing series of a finished coupling.
type Series struct {
	// Disagree[r] is the maximum Hamming distance from chain 0 across
	// companions after round r (0 from the coalescence round on).
	Disagree []int `json:"disagree"`
	// Flips[r] is chain 0's changed-vertex count in round r.
	Flips []int `json:"flips"`
	// FlipEWMA[r] is the smoothed flip rate (flips/n, α = 0.2).
	FlipEWMA []float64 `json:"flipEwma"`
	// Shards carries chain 0's per-shard compute/barrier attribution.
	Shards []ShardSeries `json:"shards,omitempty"`
}

// Diagnosis is the verdict of a coupled run.
type Diagnosis struct {
	// Chains is the coupling width k.
	Chains int `json:"chains"`
	// Rounds is the number of rounds actually run.
	Rounds int `json:"rounds"`
	// MaxRounds is the cap the run was configured with.
	MaxRounds int `json:"maxRounds"`
	// Coalesced reports whether all k chains collided within the run.
	Coalesced bool `json:"coalesced"`
	// CoalescenceRound is the first round index after which all chains
	// agreed (-1 when they never did).
	CoalescenceRound int `json:"coalescenceRound"`
	// MeasuredRounds is the coupling-measured budget: CoalescenceRound+1,
	// or MaxRounds when the chains never collided.
	MeasuredRounds int `json:"measuredRounds"`
	// Series are the per-round mixing series.
	Series Series `json:"series"`
}

// Finish summarizes the run. Call after the run completes; the coupling
// can keep running afterwards (Finish copies).
func (d *Coupled) Finish() *Diagnosis {
	kept := d.round
	if kept > len(d.disagree) {
		kept = len(d.disagree)
	}
	out := &Diagnosis{
		Chains:           d.k,
		Rounds:           d.round,
		MaxRounds:        d.max,
		Coalesced:        d.coalescedAt >= 0,
		CoalescenceRound: d.coalescedAt,
		MeasuredRounds:   d.MeasuredRounds(),
		Series: Series{
			Disagree: append([]int(nil), d.disagree[:kept]...),
			Flips:    append([]int(nil), d.flips[:kept]...),
			FlipEWMA: append([]float64(nil), d.ewma[:kept]...),
		},
	}
	compute, barrier, _, _ := d.rec.ShardRounds(0)
	if len(compute) > 0 {
		out.Series.Shards = []ShardSeries{{
			Shard:     0,
			ComputeNS: append([]int64(nil), compute...),
			BarrierNS: append([]int64(nil), barrier...),
		}}
	}
	return out
}
