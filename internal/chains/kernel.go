package chains

import (
	"fmt"

	"locsample/internal/graph"
	"locsample/internal/mrf"
	"locsample/internal/rng"
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
		{Span: graph.Items, Run: (*Kernel).edgeFilter},
		{Span: graph.Owned, Run: (*Kernel).acceptPass},
	}
	coloringRound = []phase{
		{Span: graph.Local, Run: (*Kernel).coloringPropose},
		{Span: graph.Owned, Run: (*Kernel).coloringFilter},
		{Span: graph.Owned, Run: (*Kernel).apply},
	}
	// Without rule 3 the coloring rules are asymmetric in the edge
	// orientation, so the ablation keeps the per-edge pass array.
	coloringDropRule3Round = []phase{
		{Span: graph.Local, Run: (*Kernel).coloringPropose},
		{Span: graph.Items, Run: (*Kernel).coloringEdgeFilter},
		{Span: graph.Owned, Run: (*Kernel).acceptPass},
	}
)

// Kernel runs one MRF chain's LubyGlauber or LocalMetropolis rounds over a
// band: the only implementation of those rounds, driven by the sequential,
// vertex-parallel and sharded runtimes alike (see the package comment). A
// Kernel holds the round's buffers and is not safe for concurrent Rounds.
type Kernel struct {
	m         *mrf.MRF
	b         *graph.Band
	phases    []phase
	dropRule3 bool
	workers   int

	beta   []float64 // Luby-step priorities, per local vertex
	marg   []float64 // worker 0's marginal buffer (also the baselines')
	prop   []int     // proposals, per local vertex
	pass   []bool    // edge filter outcomes, per band edge
	accept []bool    // fused coloring filter outcomes, per owned vertex
	margs  [][]float64
	flips  []int

	// The round in progress.
	x          []int
	kb, ku, kc rng.RoundKey
}

// Scratch is a Kernel over a model's centralized band with every buffer
// allocated. The package-level round functions take one and pick their
// round per call; a Scratch serves one chain at a time.
type Scratch = Kernel

// NewScratch returns a Scratch for model m.
func NewScratch(m *mrf.MRF) *Scratch {
	k := newKernel(m, m.Band(), lubyRound, false, 1)
	k.beta = make([]float64, k.b.NLocal())
	k.prop = make([]int, k.b.NLocal())
	k.pass = make([]bool, len(k.b.Edges))
	k.accept = make([]bool, k.b.NOwned)
	return k
}

// NewKernel returns a Kernel running alg over band b of model m, with each
// phase fanned over opts.Parallel goroutines when it exceeds 1. It is the
// one place a round is chosen: LocalMetropolis on the proper q-coloring
// model takes the §4.2 three-rule filter, which produces the general
// filter's trajectory without floating-point activity arithmetic
// (TestColoringFastPathMatchesGeneral). Only LubyGlauber and
// LocalMetropolis have Kernels; other algorithms panic.
func NewKernel(m *mrf.MRF, b *graph.Band, alg Algorithm, opts Options) *Kernel {
	k := newKernel(m, b, nil, opts.DropRule3, min(max(opts.Parallel, 1), max(b.NLocal(), 1)))
	switch {
	case alg == LubyGlauber:
		k.phases = lubyRound
		k.beta = make([]float64, b.NLocal())
		return k
	case alg == LocalMetropolis && m.IsColoringModel():
		k.phases = coloringFor(opts.DropRule3)
	case alg == LocalMetropolis:
		k.phases = metropolisRound
	default:
		panic(fmt.Sprintf("chains: %v has no round kernel (only LubyGlauber and LocalMetropolis decompose into barrier-separated phases)", alg))
	}
	k.prop = make([]int, b.NLocal())
	k.pass = make([]bool, len(b.Edges))
	k.accept = make([]bool, b.NOwned)
	return k
}

// coloringFor returns the §4.2 coloring round, with or without rule 3.
func coloringFor(dropRule3 bool) []phase {
	if dropRule3 {
		return coloringDropRule3Round
	}
	return coloringRound
}

// newKernel returns a Kernel with its per-worker buffers; the callers
// allocate the round buffers.
func newKernel(m *mrf.MRF, b *graph.Band, phases []phase, dropRule3 bool, workers int) *Kernel {
	k := &Kernel{m: m, b: b, phases: phases, dropRule3: dropRule3, workers: workers, flips: make([]int, workers)}
	for w := 0; w < workers; w++ {
		k.margs = append(k.margs, make([]float64, m.Q))
	}
	k.marg = k.margs[0]
	return k
}

// use points a Scratch at model m's centralized band and the given round
// for one package-level round call.
func (k *Kernel) use(m *mrf.MRF, phases []phase, dropRule3 bool) *Kernel {
	k.m, k.b, k.phases, k.dropRule3 = m, m.Band(), phases, dropRule3
	return k
}

// Round advances the band-local configuration x (owned band then halo, in
// the band's local indexing) by one round at the given seed and round
// number, and returns how many owned vertices took a new value (resampled
// for LubyGlauber, accepted a proposal for LocalMetropolis). Halo values
// are read, never written.
func (k *Kernel) Round(x []int, seed uint64, round int) int {
	r := uint64(round)
	k.x = x
	k.kb, k.ku, k.kc = rng.Key(seed, TagBeta, r), rng.Key(seed, TagUpdate, r), rng.Key(seed, TagCoin, r)
	b := k.b
	return graph.RunRound(k, k.phases, [3]int{b.NLocal(), b.NOwned, len(b.Edges)}, k.workers, k.flips)
}

// fillBeta draws the Luby-step priorities of local vertices [lo, hi). Halo
// priorities are PRF values, so a shard recomputes them instead of
// receiving them.
func (k *Kernel) fillBeta(_, lo, hi int) int {
	k.kb.FillFloat64sAt(k.beta[lo:hi], k.b.Global[lo:hi])
	return 0
}

// resample is Algorithm 1's update over owned vertices [lo, hi): a vertex
// whose β strictly exceeds every neighbor's is in the Luby-step independent
// set and redraws from its conditional marginal. Members are pairwise
// non-adjacent, so no member's marginal reads another member's in-place
// write, and the sweep realizes the parallel update exactly.
func (k *Kernel) resample(w, lo, hi int) int {
	m, b, x, beta, ku, marg := k.m, k.b, k.x, k.beta, k.ku, k.margs[w]
	rowPtr, nbr, ids := b.RowPtr, b.Nbr, b.Global
	flips := 0
	for v := lo; v < hi; v++ {
		if !graph.BetaLocalMax(beta, v, nbr[rowPtr[v]:rowPtr[v+1]]) {
			continue
		}
		if m.BandMarginalInto(b, v, x, marg) {
			x[v] = rng.CategoricalU(marg, ku.Float64(uint64(ids[v])))
			flips++
		}
	}
	return flips
}

// propose draws Algorithm 2's proposals σ_v ∝ b_v for local vertices
// [lo, hi) through the cumulative proposal tables.
func (k *Kernel) propose(_, lo, hi int) int {
	m, prop, ku := k.m, k.prop[lo:hi], k.ku
	for i, gv := range k.b.Global[lo:hi] {
		prop[i] = m.ProposeU(int(gv), ku.Float64(uint64(gv)))
	}
	return 0
}

// coloringPropose draws the §4.2 uniform color proposals for local vertices
// [lo, hi).
func (k *Kernel) coloringPropose(_, lo, hi int) int {
	prop, ku, qf := k.prop[lo:hi], k.ku, float64(k.m.Q)
	for i, gv := range k.b.Global[lo:hi] {
		prop[i] = int(ku.Float64(uint64(gv)) * qf)
	}
	return 0
}

// edgeFilter runs Algorithm 2's check for band edges [lo, hi): edge e
// passes iff its shared coin PRF(seed, TagCoin, e, round) falls below
// EdgePassProb. A cut edge is checked on both shards it touches, from the
// same coin and the same endpoint values, so both agree.
func (k *Kernel) edgeFilter(_, lo, hi int) int {
	m, edges, x, prop, pass, kc, drop := k.m, k.b.Edges, k.x, k.prop, k.pass, k.kc, k.dropRule3
	for le := lo; le < hi; le++ {
		e := &edges[le]
		p := EdgePassProb(m, int(e.ID), x[e.U], x[e.V], prop[e.U], prop[e.V], drop)
		pass[le] = kc.Float64(uint64(e.ID)) < p
	}
	return 0
}

// coloringEdgeFilter runs the §4.2 rules without rule 3 for band edges
// [lo, hi), in the edge's stored orientation (only c_v vs X_{e.U} is
// checked).
func (k *Kernel) coloringEdgeFilter(_, lo, hi int) int {
	edges, x, prop, pass := k.b.Edges, k.x, k.prop, k.pass
	for le := lo; le < hi; le++ {
		e := &edges[le]
		cu, cv := prop[e.U], prop[e.V]
		pass[le] = cu != cv && cv != x[e.U]
	}
	return 0
}

// acceptPass applies the LocalMetropolis acceptance rule to owned vertices
// [lo, hi): v adopts its proposal iff every incident edge passed.
func (k *Kernel) acceptPass(_, lo, hi int) int {
	rowPtr, slots, x, prop, pass := k.b.RowPtr, k.b.EdgeSlot, k.x, k.prop, k.pass
	flips := 0
	for v := lo; v < hi; v++ {
		ok := true
		for t, end := rowPtr[v], rowPtr[v+1]; t < end; t++ {
			if !pass[slots[t]] {
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

// coloringFilter evaluates the three §4.2 rules for owned vertices
// [lo, hi) against the frozen pre-round configuration.
func (k *Kernel) coloringFilter(_, lo, hi int) int {
	rowPtr, nbr, x, prop, accept := k.b.RowPtr, k.b.Nbr, k.x, k.prop, k.accept
	for v := lo; v < hi; v++ {
		accept[v] = coloringVertexOK(x, prop, v, nbr[rowPtr[v]:rowPtr[v+1]])
	}
	return 0
}

// apply adopts the accepted proposals of owned vertices [lo, hi).
func (k *Kernel) apply(_, lo, hi int) int {
	x, prop, accept := k.x, k.prop, k.accept
	flips := 0
	for v := lo; v < hi; v++ {
		if accept[v] {
			x[v] = prop[v]
			flips++
		}
	}
	return flips
}

// coloringVertexOK evaluates the three §4.2 filter rules for vertex v from
// its own side of each incident edge. With all three rules the per-edge
// failure condition c_u = c_v ∨ c_v = X_u ∨ c_u = X_v is symmetric in the
// endpoints, so "every incident edge passes" equals "no neighbor triggers a
// rule against v" — which lets the round skip the per-edge pass array (and
// its edge-endpoint loads) entirely. A cut edge is evaluated from both
// endpoints' shards; the decisions agree because the inputs are identical.
func coloringVertexOK(x, prop []int, v int, nbr []int32) bool {
	pv, xv := prop[v], x[v]
	for _, u := range nbr {
		pu := prop[u]
		if pv == pu || pv == x[u] || pu == xv {
			return false
		}
	}
	return true
}

// LubyGlauberRound performs one round of Algorithm 1 on the whole model:
// select the Luby-step independent set I, then resample every v ∈ I from
// its conditional marginal.
func LubyGlauberRound(m *mrf.MRF, x []int, seed uint64, round int, sc *Scratch) {
	sc.use(m, lubyRound, false).Round(x, seed, round)
}

// LocalMetropolisRound performs one round of Algorithm 2 on the whole
// model:
//
//  1. every vertex v proposes σ_v with probability ∝ b_v(σ_v);
//  2. every edge e = uv passes its check independently with probability
//     Ã_e(σ_u,σ_v)·Ã_e(X_u,σ_v)·Ã_e(σ_u,X_v), using the shared coin
//     PRF(seed, TagCoin, e, round);
//  3. v accepts σ_v iff all incident edges passed.
//
// With dropRule3 the factor Ã_e(σ_u, X_v) is omitted (E4 ablation; the
// resulting chain is biased).
func LocalMetropolisRound(m *mrf.MRF, x []int, seed uint64, round int, dropRule3 bool, sc *Scratch) {
	sc.use(m, metropolisRound, dropRule3).Round(x, seed, round)
}

// ColoringLocalMetropolisRound is the specialized proper-q-coloring fast
// path of Algorithm 2 (§4.2): uniform proposals and the three deterministic
// filter rules
//
//	reject at v if ∃u∈Γ(v): c_v = X_u  (rule 1),
//	                        c_v = c_u  (rule 2),
//	                        X_v = c_u  (rule 3).
//
// It consumes the PRF keys in exactly the same pattern as
// LocalMetropolisRound, so both functions produce identical trajectories on
// coloring models (tested), but this one does no floating-point activity
// arithmetic on the hot path. Strictly, int(u·q) can disagree with
// CategoricalU over q equal weights on a boundary set of u values of
// measure ~2^−53 per draw — never observed, but when exact fast/general
// agreement matters, compare like against like. The engine's determinism
// contracts are unaffected: every runtime and the distributed protocol take
// this path for coloring models.
func ColoringLocalMetropolisRound(m *mrf.MRF, x []int, seed uint64, round int, dropRule3 bool, sc *Scratch) {
	sc.use(m, coloringFor(dropRule3), dropRule3).Round(x, seed, round)
}

// EdgePassProb returns the LocalMetropolis filter probability of edge id
// given current spins (xu, xv) and proposals (su, sv) — the product of
// Algorithm 2's three factors (two with dropRule3). The expression is not
// symmetric in the endpoints: callers must pass values in the edge's
// stored U/V orientation.
func EdgePassProb(m *mrf.MRF, id, xu, xv, su, sv int, dropRule3 bool) float64 {
	a := m.NormalizedEdge(id)
	p := a.At(su, sv) * a.At(xu, sv)
	if !dropRule3 {
		p *= a.At(su, xv)
	}
	return p
}

// LubyStep computes the Luby-step random independent set of round `round`:
// β_v = PRF(seed, TagBeta, v, round) and v ∈ I iff β_v strictly exceeds
// every neighbor's β (Algorithm 1, lines 3–4). It fills sc.beta and returns
// the indicator in the provided slice (allocated if nil).
func LubyStep(g *graph.Graph, seed uint64, round int, sc *Scratch, inI []bool) []bool {
	n := g.N()
	if inI == nil {
		inI = make([]bool, n)
	}
	rng.Key(seed, TagBeta, uint64(round)).FillFloat64s(sc.beta[:n], 0)
	for v := 0; v < n; v++ {
		inI[v] = graph.BetaLocalMax(sc.beta, v, g.Adj(v))
	}
	return inI
}
