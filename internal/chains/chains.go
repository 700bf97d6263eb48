// Package chains implements the Markov chains studied in the paper as
// centralized simulations: the sequential single-site Glauber dynamics (§3),
// the LubyGlauber chain (Algorithm 1), the LocalMetropolis chain
// (Algorithm 2), and two classical baselines (systematic scan and the
// chromatic-scheduler parallel Glauber of [28], both discussed in §3).
//
// Algorithms 1 and 2 are defined per vertex over its radius-1 ball, so each
// is written once, as a Kernel: a list of barrier-separated phases over a
// band (graph.Band) — owned vertices, their halo, and the owned CSR rows.
// Three runtimes drive the same Kernel: sequential rounds run it over the
// model's centralized band (identity IDs, no halo), vertex-parallel rounds
// fan each phase over index ranges of that band, and the sharded runtime
// (internal/cluster) runs it over each shard's band before the halo
// exchange.
//
// All randomness is derived from a single seed via the PRF in internal/rng,
// keyed by (tag, global vertex/edge ID, round). Consequently a chain
// trajectory is a pure function of (model, initial configuration, seed),
// whichever runtime ran it — and the distributed protocols in
// internal/dist, which derive the same variates from the same keys,
// reproduce centralized trajectories bit-for-bit. That equivalence is an
// integration test, not an accident.
package chains

import (
	"fmt"
	"time"

	"locsample/internal/graph"
	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// RoundObserver and Hooks are the observation and cancellation seams
// every chain state shares (defined beside the band round driver so the
// CSP chains reach them without importing this package).
type (
	RoundObserver = graph.RoundObserver
	Hooks         = graph.Hooks
)

// PRF key tags. Distinct tags separate the randomness consumed by different
// parts of a round.
const (
	TagBeta   = 0x1001 // Luby-step IDs β_v
	TagUpdate = 0x1002 // resampling / proposal uniforms per vertex
	TagCoin   = 0x1003 // per-edge filter coins
	TagPick   = 0x1004 // Glauber vertex choice
)

// Algorithm selects a chain.
type Algorithm int

const (
	// Glauber is the sequential single-site heat-bath dynamics; one Step is
	// one single-site update (n Steps ≈ one parallel round of work).
	Glauber Algorithm = iota
	// LubyGlauber is Algorithm 1: Luby-step independent set + parallel
	// heat-bath resampling.
	LubyGlauber
	// LocalMetropolis is Algorithm 2: simultaneous proposals + per-edge
	// filtering.
	LocalMetropolis
	// SystematicScan resamples vertices in fixed round-robin order
	// (the classical scan baseline of [17, 18]).
	SystematicScan
	// ChromaticGlauber partitions V by a greedy proper coloring and updates
	// one color class per round (the chromatic scheduler of [28]).
	ChromaticGlauber
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case Glauber:
		return "Glauber"
	case LubyGlauber:
		return "LubyGlauber"
	case LocalMetropolis:
		return "LocalMetropolis"
	case SystematicScan:
		return "SystematicScan"
	case ChromaticGlauber:
		return "ChromaticGlauber"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// Options configure a Sampler.
type Options struct {
	// DropRule3 removes the third factor Ã_e(σ_u, X_v) from the
	// LocalMetropolis edge filter — for colorings, exactly the paper's
	// "at first glance redundant" rule 3 (§4.2). The resulting chain is NOT
	// reversible and its stationary distribution is biased; experiment E4
	// quantifies the damage. It only affects LocalMetropolis.
	DropRule3 bool
	// Parallel > 1 fans each phase of a round over that many goroutines
	// (contiguous index ranges, a barrier between phases; see Kernel).
	// Trajectories are bit-identical to the sequential rounds at every
	// worker count. Only LubyGlauber and LocalMetropolis support it (the
	// baselines are inherently sequential); NewSampler panics on others.
	Parallel int
}

// Sampler owns a chain state and advances it deterministically from a seed.
// A Sampler is reusable: Reset rewinds it to a fresh initial configuration
// and seed without reallocating state or scratch, which is what lets the
// batch engine draw many chains through one Sampler with zero steady-state
// allocations.
type Sampler struct {
	M    *mrf.MRF
	X    []int
	Alg  Algorithm
	Opts Options

	seed  uint64
	round int

	classes [][]int // chromatic scheduler color classes
	// kernel runs the LubyGlauber and LocalMetropolis rounds; the
	// sequential baselines use only its marginal buffer.
	kernel *Kernel

	Hooks
}

// NewSampler returns a Sampler starting from init (copied).
func NewSampler(m *mrf.MRF, init []int, seed uint64, alg Algorithm, opts Options) *Sampler {
	if len(init) != m.G.N() {
		panic("chains: initial configuration has wrong length")
	}
	s := &Sampler{
		M:    m,
		X:    append([]int(nil), init...),
		Alg:  alg,
		Opts: opts,
		seed: seed,
	}
	switch {
	case alg == LubyGlauber || alg == LocalMetropolis:
		s.kernel = NewKernel(m, m.Band(), alg, opts)
	case opts.Parallel > 1:
		panic(fmt.Sprintf("chains: %v has no vertex-parallel rounds (only LubyGlauber and LocalMetropolis decompose into barrier-separated phases)", alg))
	default:
		s.kernel = NewScratch(m)
	}
	if alg == ChromaticGlauber {
		colors, used := m.G.GreedyColoring()
		s.classes = make([][]int, used)
		for v, c := range colors {
			s.classes[c] = append(s.classes[c], v)
		}
	}
	return s
}

// Round returns the number of steps taken so far.
func (s *Sampler) Round() int { return s.round }

// Reset rewinds the Sampler to round 0 with a new initial configuration
// (copied) and seed, reusing the existing state and scratch buffers. The
// subsequent trajectory is identical to that of a freshly constructed
// Sampler with the same arguments.
func (s *Sampler) Reset(init []int, seed uint64) {
	if len(init) != len(s.X) {
		panic("chains: initial configuration has wrong length")
	}
	copy(s.X, init)
	s.seed = seed
	s.round = 0
}

// Step advances the chain by one step (one single-site update for Glauber
// and SystematicScan; one full parallel round otherwise).
func (s *Sampler) Step() {
	if s.Obs != nil {
		t0 := time.Now()
		round := s.round
		s.step()
		s.Obs.RoundDone(0, round, time.Since(t0).Nanoseconds(), 0, -1)
		return
	}
	s.step()
}

func (s *Sampler) step() {
	switch s.Alg {
	case Glauber:
		GlauberStep(s.M, s.X, s.seed, s.round, s.kernel)
	case LubyGlauber, LocalMetropolis:
		s.kernel.Round(s.X, s.seed, s.round)
	case SystematicScan:
		scanStep(s.M, s.X, s.seed, s.round, s.kernel)
	case ChromaticGlauber:
		chromaticRound(s.M, s.X, s.seed, s.round, s.classes, s.kernel)
	default:
		panic("chains: unknown algorithm")
	}
	s.round++
}

// Run advances the chain by t steps.
func (s *Sampler) Run(t int) {
	for i := 0; i < t; i++ {
		if s.Abort != nil && s.Abort.Load() {
			return
		}
		s.Step()
	}
}

// GlauberStep performs one single-site heat-bath update: pick a uniform
// vertex, resample it from the conditional marginal (2). If the marginal is
// undefined at the current configuration the vertex keeps its value (the §3
// assumption rules this out for the models we run).
func GlauberStep(m *mrf.MRF, x []int, seed uint64, round int, sc *Scratch) {
	n := m.G.N()
	v := int(rng.PRF(seed, TagPick, uint64(round)) % uint64(n))
	u := rng.PRFFloat64(seed, TagUpdate, uint64(v), uint64(round))
	if c, ok := m.ResampleU(v, x, sc.marg, u); ok {
		x[v] = c
	}
}

// scanStep resamples vertex (round mod n) — systematic scan.
func scanStep(m *mrf.MRF, x []int, seed uint64, round int, sc *Scratch) {
	v := round % m.G.N()
	u := rng.PRFFloat64(seed, TagUpdate, uint64(v), uint64(round))
	if c, ok := m.ResampleU(v, x, sc.marg, u); ok {
		x[v] = c
	}
}

// chromaticRound resamples every vertex of one greedy color class in
// parallel (the [28] chromatic scheduler). Vertices in a class are pairwise
// non-adjacent, so in-place updates are exact.
func chromaticRound(m *mrf.MRF, x []int, seed uint64, round int, classes [][]int, sc *Scratch) {
	class := classes[round%len(classes)]
	ku := rng.Key(seed, TagUpdate, uint64(round))
	for _, v := range class {
		if c, ok := m.ResampleU(v, x, sc.marg, ku.Float64(uint64(v))); ok {
			x[v] = c
		}
	}
}

// GreedyFeasible constructs a feasible starting configuration by assigning
// vertices in index order, each to the value maximizing its conditional
// activity given already-assigned neighbors. For colorings with q ≥ Δ+1
// this is greedy coloring; for hardcore it returns the empty set. Returns
// an error if some vertex has no positive-activity value.
func GreedyFeasible(m *mrf.MRF) ([]int, error) {
	n := m.G.N()
	x := make([]int, n)
	assigned := make([]bool, n)
	for v := 0; v < n; v++ {
		bestC, bestW := -1, 0.0
		for c := 0; c < m.Q; c++ {
			w := m.VertexB[v][c]
			if w == 0 {
				continue
			}
			adj, inc := m.G.Adj(v), m.G.Inc(v)
			for i, u := range adj {
				if assigned[u] {
					w *= m.EdgeA[inc[i]].At(c, x[u])
					if w == 0 {
						break
					}
				}
			}
			if w > bestW {
				bestW, bestC = w, c
			}
		}
		if bestC < 0 {
			return nil, fmt.Errorf("chains: greedy construction stuck at vertex %d", v)
		}
		x[v] = bestC
		assigned[v] = true
	}
	return x, nil
}
