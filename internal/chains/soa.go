// Structure-of-arrays multi-chain round kernels: one CSR walk serves a
// block of up to 64 chains.
//
// The per-chain kernels in chains.go advance one chain per call, so a
// k-chain batch re-walks the same adjacency k times per round and re-loads
// every activity pointer once per chain per edge. The SoA block engine
// stores W chains interleaved [vertex][chain] — chain c's value at vertex v
// is x[v*W+c], a flat []int32 lane array — so one pass over the CSR
// evaluates marginals, proposals, and edge filters for all W lanes with
// contiguous loads: the neighbor index, the activity table pointer, and the
// β/state cache lines are fetched once per vertex (or edge) and amortized
// over the whole block. The per-round key schedules are hoisted once per
// block per round through rng.KeysInto.
//
// Determinism is the same contract as every other runtime in this
// repository: lane c of a block seeded {s_0..s_{W-1}} reproduces the
// per-chain Sampler at seed s_c bit-for-bit, at every block width. That
// holds by construction — every variate is PRF(seed_c, tag, id, round),
// keyed by the chain's own seed and a global vertex/edge ID, never by lane
// index or visitation order — and is pinned by TestSoARoundsMatchSequential
// and the engine-level width gates.
package chains

import (
	"fmt"
	"math/bits"
	"time"

	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// MaxBatchWidth is the widest SoA block: lane sets are tracked as uint64
// bitmasks, one bit per chain.
const MaxBatchWidth = 64

// SoABlock advances up to MaxBatchWidth chains of one model in lockstep
// through shared round kernels. A block is reusable: Reset rewinds it to
// round 0 with new lane seeds (and possibly a different lane count ≤ the
// construction width); Run advances all lanes; Scatter copies the lanes
// out. All working buffers are allocated at construction — steady-state
// rounds allocate nothing (alloc-gated, instrumented and bare).
type SoABlock struct {
	M    *mrf.MRF
	Alg  Algorithm
	Opts Options

	// Hooks follow the Sampler contract: Obs (if non-nil) gets one
	// RoundDone per block round — a block round advances all lanes at
	// once — and Abort is polled between rounds by Run.
	Hooks

	maxW     int
	coloring bool

	w     int      // active lanes this run (1..maxW)
	seeds []uint64 // lane chain-seeds
	round int

	x    []int32 // [n*w] lane state, x[v*w+c]
	prop []int32 // [n*w] lane proposals
	beta []float64
	marg []float64 // one marginal row, reused lane-sequentially per vertex

	kb, ku, kc []rng.RoundKey // hoisted per-lane key schedules

	accept []uint64 // [n] per-vertex lane accept masks
	pass   []uint64 // [m] per-edge lane pass masks
}

// NewSoABlock returns a block for up to maxW chains of model m. Only the
// kernels with marginal/propose/filter rounds batch: Glauber, LubyGlauber,
// and LocalMetropolis (the scan and chromatic baselines stay per-chain).
func NewSoABlock(m *mrf.MRF, alg Algorithm, opts Options, maxW int) *SoABlock {
	if maxW < 1 || maxW > MaxBatchWidth {
		panic(fmt.Sprintf("chains: SoA block width must be in [1,%d], got %d", MaxBatchWidth, maxW))
	}
	if alg != Glauber && alg != LubyGlauber && alg != LocalMetropolis {
		panic(fmt.Sprintf("chains: %v has no SoA batch kernel", alg))
	}
	n := m.G.N()
	b := &SoABlock{
		M:     m,
		Alg:   alg,
		Opts:  opts,
		maxW:  maxW,
		x:     make([]int32, n*maxW),
		beta:  make([]float64, n*maxW),
		marg:  make([]float64, m.Q),
		seeds: make([]uint64, maxW),
		kb:    make([]rng.RoundKey, maxW),
		ku:    make([]rng.RoundKey, maxW),
	}
	if alg == LocalMetropolis {
		b.coloring = m.IsColoringModel()
		b.prop = make([]int32, n*maxW)
		if b.coloring && !opts.DropRule3 {
			// The symmetric three-rule coloring filter fuses into a
			// per-vertex sweep; only the asymmetric ablation and the
			// general filter need per-edge pass masks.
			b.accept = make([]uint64, n)
		} else {
			b.pass = make([]uint64, m.G.M())
			if !b.coloring {
				b.kc = make([]rng.RoundKey, maxW)
			}
		}
	}
	return b
}

// Width returns the lane count of the current run.
func (b *SoABlock) Width() int { return b.w }

// MaxWidth returns the construction width — the widest run the block's
// buffers can serve. The engine's block pool is grow-only on this.
func (b *SoABlock) MaxWidth() int { return b.maxW }

// Round returns the number of rounds taken since Reset.
func (b *SoABlock) Round() int { return b.round }

// Reset rewinds the block to round 0 with len(seeds) active lanes, every
// lane starting from init. len(seeds) must be in [1, maxW]. Lanes are
// packed at stride len(seeds), so a tail block narrower than the
// construction width wastes no bandwidth on dead lanes.
func (b *SoABlock) Reset(init []int, seeds []uint64) {
	n := b.M.G.N()
	if len(init) != n {
		panic("chains: initial configuration has wrong length")
	}
	if len(seeds) < 1 || len(seeds) > b.maxW {
		panic(fmt.Sprintf("chains: SoA lane count must be in [1,%d], got %d", b.maxW, len(seeds)))
	}
	w := len(seeds)
	b.w = w
	copy(b.seeds[:w], seeds)
	b.round = 0
	x := b.x
	for v := 0; v < n; v++ {
		xv := int32(init[v])
		row := x[v*w : v*w+w]
		for c := range row {
			row[c] = xv
		}
	}
}

// Scatter copies lane c into dst[c] for every active lane. Each dst[c]
// must have length n.
func (b *SoABlock) Scatter(dst [][]int) {
	n, w := b.M.G.N(), b.w
	if len(dst) != w {
		panic(fmt.Sprintf("chains: Scatter got %d destinations for %d lanes", len(dst), w))
	}
	for v := 0; v < n; v++ {
		row := b.x[v*w : v*w+w]
		for c, out := range dst {
			out[v] = int(row[c])
		}
	}
}

// Step advances all lanes by one round, reporting to Obs like
// Sampler.Step (shard 0, flips uncounted).
func (b *SoABlock) Step() {
	if b.Obs != nil {
		t0 := time.Now()
		round := b.round
		b.step()
		b.Obs.RoundDone(0, round, time.Since(t0).Nanoseconds(), 0, -1)
		return
	}
	b.step()
}

// Run advances all lanes by t rounds, polling Abort at round boundaries.
func (b *SoABlock) Run(t int) {
	for i := 0; i < t; i++ {
		if b.Abort != nil && b.Abort.Load() {
			return
		}
		b.Step()
	}
}

func (b *SoABlock) step() {
	switch b.Alg {
	case Glauber:
		b.glauberStep()
	case LubyGlauber:
		b.lubyGlauberRound()
	case LocalMetropolis:
		switch {
		case b.coloring && !b.Opts.DropRule3:
			b.coloringRoundSymmetric()
		case b.coloring:
			b.coloringRoundDropRule3()
		default:
			b.localMetropolisRound()
		}
	}
	b.round++
}

// laneMask returns the full mask over w lanes.
func laneMask(w int) uint64 {
	if w == 64 {
		return ^uint64(0)
	}
	return (uint64(1) << w) - 1
}

// glauberStep is GlauberStep per lane: each lane picks its own vertex
// (the picks differ across lanes — same PRF inputs as the per-chain
// kernel), so only the strided marginal is shared, not the walk.
func (b *SoABlock) glauberStep() {
	m, w := b.M, b.w
	n := m.G.N()
	round := uint64(b.round)
	for c := 0; c < w; c++ {
		v := int(rng.PRF(b.seeds[c], TagPick, round) % uint64(n))
		u := rng.PRFFloat64(b.seeds[c], TagUpdate, uint64(v), round)
		if spin, ok := m.ResampleLaneU(v, b.x, w, c, b.marg, u); ok {
			b.x[v*w+c] = int32(spin)
		}
	}
}

// lubyGlauberRound is LubyGlauberRound over all lanes: one β fill, one
// CSR membership walk deciding all lanes per vertex, and lane-sequential
// heat-bath resampling of the winners. Per lane the arithmetic is the
// sequential kernel's verbatim: graph.BetaLocalMax's strict tie-break and
// ResampleU's marginal+draw order.
func (b *SoABlock) lubyGlauberRound() {
	m, w := b.M, b.w
	g := m.G
	n := g.N()
	round := uint64(b.round)
	rng.KeysInto(b.kb[:w], b.seeds[:w], TagBeta, round)
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, round)
	beta := b.beta
	for v := 0; v < n; v++ {
		row := beta[v*w : v*w+w]
		for c := range row {
			row[c] = b.kb[c].Float64(uint64(v))
		}
	}
	rowPtr, nbr, _ := g.CSR()
	full := laneMask(w)
	for v := 0; v < n; v++ {
		mask := full
		vrow := beta[v*w : v*w+w]
		for _, u := range nbr[rowPtr[v]:rowPtr[v+1]] {
			urow := beta[int(u)*w : int(u)*w+w]
			rem := mask
			for rem != 0 {
				c := bits.TrailingZeros64(rem)
				rem &= rem - 1
				if urow[c] >= vrow[c] {
					mask &^= 1 << c
				}
			}
			if mask == 0 {
				break
			}
		}
		// Winners form an independent set per lane, so in-place lane
		// updates are exact — no resampled lane value is read by another
		// winner of the same lane this round.
		for mask != 0 {
			c := bits.TrailingZeros64(mask)
			mask &= mask - 1
			if spin, ok := m.ResampleLaneU(v, b.x, w, c, b.marg, b.ku[c].Float64(uint64(v))); ok {
				b.x[v*w+c] = int32(spin)
			}
		}
	}
}

// coloringRoundSymmetric is ColoringLocalMetropolisRound's default
// (all-three-rules) path over all lanes: uniform proposals, one CSR walk
// computing every lane's accept bit per vertex, then a lane-masked apply
// sweep. Rule arithmetic per lane matches coloringVertexOK exactly.
func (b *SoABlock) coloringRoundSymmetric() {
	m, w := b.M, b.w
	g := m.G
	n := g.N()
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, uint64(b.round))
	qf := float64(m.Q)
	prop, x := b.prop, b.x
	for v := 0; v < n; v++ {
		row := prop[v*w : v*w+w]
		for c := range row {
			row[c] = int32(b.ku[c].Float64(uint64(v)) * qf)
		}
	}
	rowPtr, nbr, _ := g.CSR()
	full := laneMask(w)
	for v := 0; v < n; v++ {
		mask := full
		vp := prop[v*w : v*w+w]
		vx := x[v*w : v*w+w]
		for _, u := range nbr[rowPtr[v]:rowPtr[v+1]] {
			up := prop[int(u)*w : int(u)*w+w]
			ux := x[int(u)*w : int(u)*w+w]
			rem := mask
			for rem != 0 {
				c := bits.TrailingZeros64(rem)
				rem &= rem - 1
				if vp[c] == up[c] || vp[c] == ux[c] || up[c] == vx[c] {
					mask &^= 1 << c
				}
			}
			if mask == 0 {
				break
			}
		}
		b.accept[v] = mask
	}
	for v := 0; v < n; v++ {
		mask := b.accept[v]
		for mask != 0 {
			c := bits.TrailingZeros64(mask)
			mask &= mask - 1
			x[v*w+c] = prop[v*w+c]
		}
	}
}

// coloringRoundDropRule3 is the E4-ablation coloring round over all
// lanes. Without rule 3 the filter is asymmetric in the edge orientation,
// so it keeps per-edge lane pass masks (coloringEdgeFilter's rule order)
// and applies them through the incidence walk.
func (b *SoABlock) coloringRoundDropRule3() {
	m, w := b.M, b.w
	g := m.G
	n := g.N()
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, uint64(b.round))
	qf := float64(m.Q)
	prop, x := b.prop, b.x
	for v := 0; v < n; v++ {
		row := prop[v*w : v*w+w]
		for c := range row {
			row[c] = int32(b.ku[c].Float64(uint64(v)) * qf)
		}
	}
	edges := g.Edges()
	for id := range edges {
		e := &edges[id]
		pu := prop[int(e.U)*w : int(e.U)*w+w]
		pv := prop[int(e.V)*w : int(e.V)*w+w]
		xu := x[int(e.U)*w : int(e.U)*w+w]
		var pm uint64
		for c := 0; c < w; c++ {
			if pu[c] != pv[c] && pv[c] != xu[c] {
				pm |= 1 << c
			}
		}
		b.pass[id] = pm
	}
	b.applyPassAccept()
}

// localMetropolisRound is LocalMetropolisRound over all lanes: proposals
// through the precomputed cumulative tables, the three-factor edge filter
// with per-(lane, edge) coins in EdgePassProb's multiplication order, and
// the incidence-walk accept.
func (b *SoABlock) localMetropolisRound() {
	m, w := b.M, b.w
	g := m.G
	n := g.N()
	round := uint64(b.round)
	rng.KeysInto(b.ku[:w], b.seeds[:w], TagUpdate, round)
	rng.KeysInto(b.kc[:w], b.seeds[:w], TagCoin, round)
	prop, x := b.prop, b.x
	for v := 0; v < n; v++ {
		row := prop[v*w : v*w+w]
		for c := range row {
			row[c] = int32(m.ProposeU(v, b.ku[c].Float64(uint64(v))))
		}
	}
	dropRule3 := b.Opts.DropRule3
	edges := g.Edges()
	for id := range edges {
		e := &edges[id]
		a := m.NormalizedEdge(id)
		pu := prop[int(e.U)*w : int(e.U)*w+w]
		pv := prop[int(e.V)*w : int(e.V)*w+w]
		xu := x[int(e.U)*w : int(e.U)*w+w]
		xv := x[int(e.V)*w : int(e.V)*w+w]
		var pm uint64
		for c := 0; c < w; c++ {
			su, sv := int(pu[c]), int(pv[c])
			p := a.At(su, sv) * a.At(int(xu[c]), sv)
			if !dropRule3 {
				p *= a.At(su, int(xv[c]))
			}
			if b.kc[c].Float64(uint64(id)) < p {
				pm |= 1 << c
			}
		}
		b.pass[id] = pm
	}
	b.applyPassAccept()
}

// applyPassAccept is Kernel.acceptPass over lane masks: a lane accepts at v
// iff its bit survives every incident edge's pass mask.
func (b *SoABlock) applyPassAccept() {
	g := b.M.G
	n, w := g.N(), b.w
	rowPtr, _, inc := g.CSR()
	full := laneMask(w)
	prop, x := b.prop, b.x
	for v := 0; v < n; v++ {
		mask := full
		for t, end := rowPtr[v], rowPtr[v+1]; t < end; t++ {
			mask &= b.pass[inc[t]]
			if mask == 0 {
				break
			}
		}
		for mask != 0 {
			c := bits.TrailingZeros64(mask)
			mask &= mask - 1
			x[v*w+c] = prop[v*w+c]
		}
	}
}
