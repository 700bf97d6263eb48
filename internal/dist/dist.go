// Package dist implements the paper's two sampling algorithms as genuine
// message-passing protocols on the LOCAL-model runtime of
// internal/localmodel, plus Luby's MIS protocol (the §1.1 separation
// baseline) and the hypergraph LubyGlauber protocol for weighted local CSPs.
//
// Determinism contract. Every protocol derives its randomness from the
// shared seed through the PRF in internal/rng with the SAME keys the
// centralized round functions in internal/chains (and internal/csp) use:
// per-vertex updates are keyed (TagUpdate, v, round), Luby lottery numbers
// (TagBeta, v, round), per-edge filter coins (TagCoin, edgeID, round).
// Because the PRF is a pure function, a node that knows its own identifier,
// its neighbors' identifiers (learned in round 0) and the shared seed can
// evaluate exactly the variates the centralized replay consumes, and the
// distributed trajectory is bit-for-bit identical to the centralized one.
// That equivalence is pinned by the tests in this package and by
// TestDistributedMatchesCentralized at the repository root.
//
// Floating-point care: the LocalMetropolis edge filter multiplies three
// activity factors whose product must agree bit-for-bit at both endpoints of
// the edge. Multiplication is commutative but not associative, so both
// endpoints order the operands canonically — by the edge's (U, V) roles,
// exposed to nodes as Env.IsEdgeU — matching the operand order of the
// centralized chains.LocalMetropolisRound.
package dist

import (
	"encoding/binary"
	"fmt"

	"locsample/internal/chains"
	"locsample/internal/localmodel"
	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// maxSpin bounds spins so they fit the uint16 wire encoding; every model in
// the repository has q far below this.
const maxSpin = 1<<16 - 1

func validateMRF(m *mrf.MRF, init []int) error {
	if m.Q > maxSpin {
		return fmt.Errorf("dist: q=%d exceeds the %d-spin wire format", m.Q, maxSpin)
	}
	if len(init) != m.G.N() {
		return fmt.Errorf("dist: init length %d for %d vertices", len(init), m.G.N())
	}
	for v, x := range init {
		if x < 0 || x >= m.Q {
			return fmt.Errorf("dist: init[%d] = %d out of [0,%d)", v, x, m.Q)
		}
	}
	return nil
}

// --- LubyGlauber (Algorithm 1) ----------------------------------------------

// lubyNode runs one vertex of the LubyGlauber protocol. Protocol round t
// executes chain round t-1: messages sent in round t-1 carry each node's
// spin after chain round t-2, which is exactly the state chain round t-1
// reads. Round-0 messages additionally carry the sender's identifier, so
// that from round 1 on every node can evaluate its neighbors' lottery
// numbers β_u = PRF(seed, TagBeta, u, round) locally from the shared seed
// — the common-random-string reading of Algorithm 1's lottery.
type lubyNode struct {
	m      *mrf.MRF
	seed   uint64
	rounds int

	env   localmodel.Env
	x     int
	nbrID []uint64
	nbrX  []int
	marg  []float64
}

func (n *lubyNode) Init(env localmodel.Env) {
	n.env = env
	n.nbrID = make([]uint64, env.Deg)
	n.nbrX = make([]int, env.Deg)
	n.marg = make([]float64, n.m.Q)
}

func (n *lubyNode) Round(t int, in [][]byte) ([][]byte, bool) {
	if t > 0 {
		for i, msg := range in {
			if t == 1 {
				n.nbrID[i] = uint64(binary.LittleEndian.Uint32(msg))
				n.nbrX[i] = int(binary.LittleEndian.Uint16(msg[4:]))
			} else {
				n.nbrX[i] = int(binary.LittleEndian.Uint16(msg))
			}
		}
		r := uint64(t - 1)
		betaV := rng.PRFFloat64(n.seed, chains.TagBeta, uint64(n.env.V), r)
		isMax := true
		for _, u := range n.nbrID {
			if rng.PRFFloat64(n.seed, chains.TagBeta, u, r) >= betaV {
				isMax = false
				break
			}
		}
		if isMax && marginalSlots(n.m, n.env.V, n.env.EdgeIDs, n.nbrX, n.marg) {
			u := rng.PRFFloat64(n.seed, chains.TagUpdate, uint64(n.env.V), r)
			n.x = rng.CategoricalU(n.marg, u)
		}
	}
	if t >= n.rounds {
		return nil, true
	}
	var out [][]byte
	if t == 0 {
		out = make([][]byte, n.env.Deg)
		buf := make([]byte, 6)
		binary.LittleEndian.PutUint32(buf, uint32(n.env.V))
		binary.LittleEndian.PutUint16(buf[4:], uint16(n.x))
		for i := range out {
			out[i] = buf
		}
	} else {
		out = make([][]byte, n.env.Deg)
		buf := make([]byte, 2)
		binary.LittleEndian.PutUint16(buf, uint16(n.x))
		for i := range out {
			out[i] = buf
		}
	}
	return out, false
}

func (n *lubyNode) Output() int { return n.x }

// marginalSlots is mrf.MarginalInto with the neighborhood read from the
// node's message slots (which the runtime aligns with Inc(v)/Adj(v)) instead
// of the global configuration. The floating-point operations run in the
// identical order, so the result is bit-for-bit the centralized marginal.
func marginalSlots(m *mrf.MRF, v int, edgeIDs []int64, nbrX []int, out []float64) bool {
	b := m.VertexB[v]
	for c := 0; c < m.Q; c++ {
		out[c] = b[c]
	}
	for i, xu := range nbrX {
		a := m.EdgeA[edgeIDs[i]]
		for c := 0; c < m.Q; c++ {
			if out[c] != 0 {
				out[c] *= a.At(c, xu)
			}
		}
	}
	total := 0.0
	for c := 0; c < m.Q; c++ {
		total += out[c]
	}
	if total <= 0 {
		return false
	}
	inv := 1 / total
	for c := 0; c < m.Q; c++ {
		out[c] *= inv
	}
	return true
}

// --- LocalMetropolis (Algorithm 2) -------------------------------------------

// lmNode runs one vertex of the LocalMetropolis protocol. Each message is
// exactly 4 bytes — the sender's current spin and its fresh proposal, two
// uint16s — so protocol round t delivers everything chain round t-1 needs:
// both endpoints evaluate the shared per-edge coin PRF(seed, TagCoin, e,
// t-1) themselves, with the three activity factors multiplied in canonical
// (U, V) operand order so the product agrees bit-for-bit.
type lmNode struct {
	m        *mrf.MRF
	seed     uint64
	rounds   int
	drop     bool
	coloring bool

	env  localmodel.Env
	x    int
	prop int
}

func (n *lmNode) Init(env localmodel.Env) { n.env = env }

func (n *lmNode) Round(t int, in [][]byte) ([][]byte, bool) {
	if t > 0 {
		r := uint64(t - 1)
		ok := true
		for i, msg := range in {
			theirX := int(binary.LittleEndian.Uint16(msg))
			theirProp := int(binary.LittleEndian.Uint16(msg[2:]))
			var xU, xV, sU, sV int
			if n.env.IsEdgeU[i] {
				xU, xV, sU, sV = n.x, theirX, n.prop, theirProp
			} else {
				xU, xV, sU, sV = theirX, n.x, theirProp, n.prop
			}
			var pass bool
			if n.coloring {
				pass = sU != sV && sV != xU
				if !n.drop {
					pass = pass && sU != xV
				}
			} else {
				a := n.m.NormalizedEdge(int(n.env.EdgeIDs[i]))
				p := a.At(sU, sV) * a.At(xU, sV)
				if !n.drop {
					p *= a.At(sU, xV)
				}
				coin := rng.PRFFloat64(n.seed, chains.TagCoin, uint64(n.env.EdgeIDs[i]), r)
				pass = coin < p
			}
			if !pass {
				ok = false
			}
		}
		if ok {
			n.x = n.prop
		}
	}
	if t >= n.rounds {
		return nil, true
	}
	u := rng.PRFFloat64(n.seed, chains.TagUpdate, uint64(n.env.V), uint64(t))
	if n.coloring {
		n.prop = int(u * float64(n.m.Q))
	} else {
		n.prop = rng.CategoricalU(n.m.ProposalRow(n.env.V), u)
	}
	out := make([][]byte, n.env.Deg)
	buf := make([]byte, 4)
	binary.LittleEndian.PutUint16(buf, uint16(n.x))
	binary.LittleEndian.PutUint16(buf[2:], uint16(n.prop))
	for i := range out {
		out[i] = buf
	}
	return out, false
}

func (n *lmNode) Output() int { return n.x }

// RunMRF executes `rounds` chain iterations of alg — LubyGlauber
// (Algorithm 1) or LocalMetropolis (Algorithm 2, with the E4 ablation
// when dropRule3 is set) — as a LOCAL protocol from init with the given
// seed, returning the sampled configuration and the run's communication
// statistics. The trajectory is bit-identical to the centralized
// chains.Sampler with the same model, init, seed and options. For coloring
// models the LocalMetropolis nodes use the deterministic three-rule filter
// of §4.2, the same fast path the centralized sampler takes.
func RunMRF(m *mrf.MRF, alg chains.Algorithm, init []int, seed uint64, rounds int, dropRule3 bool) ([]int, localmodel.Stats, error) {
	if err := validateMRF(m, init); err != nil {
		return nil, localmodel.Stats{}, err
	}
	var node func(v int) localmodel.Protocol
	switch alg {
	case chains.LubyGlauber:
		node = func(v int) localmodel.Protocol {
			return &lubyNode{m: m, seed: seed, rounds: rounds, x: init[v]}
		}
	case chains.LocalMetropolis:
		coloring := m.IsColoringModel()
		node = func(v int) localmodel.Protocol {
			return &lmNode{m: m, seed: seed, rounds: rounds, drop: dropRule3, coloring: coloring, x: init[v]}
		}
	default:
		return nil, localmodel.Stats{}, fmt.Errorf("dist: %v has no LOCAL protocol", alg)
	}
	// Protocol round 0 only exchanges initial state, so `rounds` chain
	// iterations take rounds+1 LOCAL rounds.
	return localmodel.New(m.G, localmodel.Config{SharedSeed: seed}, node).Run(rounds + 1)
}
