// Package partition splits a graph into k vertex-disjoint shards for the
// sharded single-chain runtime (internal/cluster). A Plan is a compiled,
// immutable description of the split:
//
//   - every vertex is owned by exactly one shard;
//   - each shard is a band (graph.Band, csp.Band for CSP plans) over its
//     owned vertices, whose per-vertex slot order is exactly the global
//     graph's adjacency order (so shard-local products of edge activities
//     multiply in the same floating-point order as the centralized chains —
//     a prerequisite for bit-identical trajectories); with one shard the
//     band equals the model's centralized band;
//   - halo vertices — out-of-shard neighbors of owned vertices — get local
//     copies, and symmetric exchange maps (Halo) say which owned values
//     each shard sends to, and which halo slots it receives from, every
//     other shard. MRF and CSP plans build them with the same code.
//
// Plans are pure functions of (graph, k, strategy, seed): building the same
// partition twice yields identical plans, so a compiled sampler's shard
// layout is as reproducible as its chains. Which partition a chain runs on
// never affects its output (the cluster engine keys all randomness by
// global vertex/edge IDs); strategy and seed only steer how much boundary
// traffic the run pays.
package partition

import (
	"fmt"
	"slices"
	"sort"

	"locsample/internal/graph"
	"locsample/internal/rng"
)

// TagGrow keys the PRF that orders BFS growth seeds. It is disjoint from
// the chain/batch tag spaces, so partition randomness never collides with
// any variate a chain consumes.
const TagGrow = 0x5001

// Strategy selects how vertices are assigned to shards.
type Strategy int

const (
	// Range assigns contiguous, balanced vertex-ID blocks: shard s owns
	// [s·n/k, (s+1)·n/k). On generators that number vertices coherently
	// (grids row-major, paths in order) this yields small boundaries with
	// zero preprocessing.
	Range Strategy = iota
	// BFS grows shards by seeded breadth-first search: growth seeds are
	// drawn in PRF order, each shard claims a balanced share of the
	// remaining vertices by BFS from its seed (restarting on exhausted
	// components), producing connected, low-cut regions on graphs whose
	// vertex numbering carries no locality.
	BFS
)

// String returns the strategy's wire name.
func (s Strategy) String() string {
	switch s {
	case Range:
		return "range"
	case BFS:
		return "bfs"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// ParseStrategy maps a wire name to a Strategy.
func ParseStrategy(s string) (Strategy, error) {
	switch s {
	case "range", "":
		return Range, nil
	case "bfs":
		return BFS, nil
	default:
		return 0, fmt.Errorf("partition: unknown strategy %q", s)
	}
}

// Halo is a shard's halo-exchange maps. SendTo[j] lists the owned local
// indices whose post-round values the shard sends to shard j; RecvFrom[j]
// lists the halo local indices it overwrites with shard j's message. The
// maps are symmetric and aligned: plan.Shards[j].SendTo[i][t] and
// plan.Shards[i].RecvFrom[j][t] name the same global vertex.
type Halo struct {
	SendTo   [][]int32
	RecvFrom [][]int32
	// Neighbors lists the shards this shard exchanges with, ascending.
	Neighbors []int
}

// Shard is one worker's slice of the graph: a graph.Band over the vertices
// it owns (local indices [0, NOwned) owned ascending, then the halo
// ascending) plus the maps that refresh the halo every round.
type Shard struct {
	// ID is the shard's index in the plan.
	ID int
	graph.Band
	*Halo
}

// Layout is what MRF and CSP plans share, built by the same code for both:
// the ownership assignment and every shard's halo-exchange maps.
type Layout struct {
	// K is the shard count.
	K int
	// Strategy and Seed are the inputs the ownership assignment was grown
	// from (Seed only matters for BFS).
	Strategy Strategy
	Seed     uint64
	// N is the partitioned model's vertex count.
	N int
	// Owner[v] is the shard owning global vertex v.
	Owner []int32
	// HaloCopies is the total number of halo slots across all shards — the
	// number of vertex states crossing shard boundaries per exchange.
	HaloCopies int

	halos []Halo // halos[s] is shard s's Halo
}

// Plan is a compiled partition of a graph into k shards.
type Plan struct {
	Layout
	// Shards are the per-worker subgraphs.
	Shards []*Shard
	// CutEdges counts edges whose endpoints live on different shards.
	CutEdges int
}

// Build compiles a k-way partition of g. It requires 1 <= k <= g.N(), so
// every shard owns at least one vertex. The result is a pure function of
// the arguments.
func Build(g *graph.Graph, k int, strat Strategy, seed uint64) (*Plan, error) {
	p := &Plan{}
	globals, nOwned, err := p.Layout.build(g.N(), k, strat, seed, func(v int32) []int32 { return g.Adj(int(v)) })
	if err != nil {
		return nil, err
	}
	p.Shards = make([]*Shard, k)
	// Each shard's edges, ascending by ID: every edge with an owned
	// endpoint. A cut edge lands in both incident shards, so both evaluate
	// its filter from the same shared coin.
	edgeIDs := make([][]int32, k)
	for _, e := range g.Edges() {
		su, sv := p.Owner[e.U], p.Owner[e.V]
		edgeIDs[su] = append(edgeIDs[su], e.ID)
		if sv != su {
			edgeIDs[sv] = append(edgeIDs[sv], e.ID)
			p.CutEdges++
		}
	}
	localOf := make([]int32, g.N())
	edgeLocal := make([]int32, g.M())
	for s := range p.Shards {
		p.Shards[s] = &Shard{ID: s, Band: bandOf(g, globals[s], nOwned[s], edgeIDs[s], localOf, edgeLocal), Halo: &p.halos[s]}
	}
	return p, nil
}

// growBFS assigns owners by seeded breadth-first growth over an arbitrary
// adjacency (graph edges for MRF plans, hypergraph neighborhoods Γ(v) for
// CSP plans). Vertices are ranked once by PRF(seed, TagGrow, v) (ties by
// ID); each shard starts from the best-ranked unassigned vertex and claims
// its balanced share of the remaining vertices by BFS, restarting from the
// next-ranked unassigned vertex whenever its frontier exhausts a component.
// Deterministic: the rank order, the FIFO frontier, and the adjacency order
// leave no choice to scheduling.
func growBFS(n int, adj func(int32) []int32, k int, seed uint64, owner []int32) {
	for v := range owner {
		owner[v] = -1
	}
	ranked := make([]int32, n)
	key := make([]uint64, n)
	for v := 0; v < n; v++ {
		ranked[v] = int32(v)
		key[v] = rng.PRF(seed, TagGrow, uint64(v))
	}
	sort.Slice(ranked, func(i, j int) bool {
		a, b := ranked[i], ranked[j]
		if key[a] != key[b] {
			return key[a] < key[b]
		}
		return a < b
	})
	cursor := 0 // next candidate growth seed in ranked order
	assigned := 0
	queue := make([]int32, 0, n)
	for s := 0; s < k; s++ {
		target := (n - assigned + (k - s) - 1) / (k - s) // balanced share
		claimed := 0
		for claimed < target {
			for owner[ranked[cursor]] != -1 {
				cursor++
			}
			start := ranked[cursor]
			owner[start] = int32(s)
			claimed++
			queue = append(queue[:0], start)
			for len(queue) > 0 && claimed < target {
				v := queue[0]
				queue = queue[1:]
				for _, u := range adj(v) {
					if owner[u] != -1 {
						continue
					}
					owner[u] = int32(s)
					claimed++
					queue = append(queue, u)
					if claimed >= target {
						break
					}
				}
			}
		}
		assigned += claimed
	}
}

// NeighborLists returns the plan's shard adjacency (NeighborLists()[s]
// lists the shards s exchanges boundary states with) in the shape the
// transport constructors take. The rows alias the shards' neighbor
// slices; callers must not mutate them.
func (l *Layout) NeighborLists() [][]int {
	out := make([][]int, l.K)
	for s := range l.halos {
		out[s] = l.halos[s].Neighbors
	}
	return out
}

// AssignShards places k shards on w worker processes contiguously and
// balanced: shard s goes to process s*w/k, so every process hosts a
// consecutive run of ⌊k/w⌋ or ⌈k/w⌉ shards and (for w ≤ k) no process
// is empty. Contiguity matters for the Range strategy, where
// consecutive shards own consecutive vertex bands and are each other's
// likeliest neighbors.
func AssignShards(k, w int) []int {
	assign := make([]int, k)
	for s := range assign {
		assign[s] = s * w / k
	}
	return assign
}

// build assigns every vertex of an n-vertex model to one of k shards,
// growing BFS shards over adj (graph edges, or a CSP's hypergraph
// neighborhoods Γ), and derives each shard's local vertex list (owned
// ascending, then the halo — out-of-shard neighbors of owned vertices
// under adj — ascending), owned count and halo-exchange maps.
func (l *Layout) build(n, k int, strat Strategy, seed uint64, adj func(int32) []int32) (globals [][]int32, nOwned []int, err error) {
	if k < 1 || k > n {
		return nil, nil, fmt.Errorf("partition: need 1 <= shards <= %d vertices, got %d", n, k)
	}
	owner := make([]int32, n)
	switch strat {
	case Range:
		for v := 0; v < n; v++ {
			owner[v] = int32(v * k / n)
		}
	case BFS:
		growBFS(n, adj, k, seed, owner)
	default:
		return nil, nil, fmt.Errorf("partition: unknown strategy %v", strat)
	}
	*l = Layout{K: k, Strategy: strat, Seed: seed, N: n, Owner: owner, halos: make([]Halo, k)}

	globals = make([][]int32, k)
	nOwned = make([]int, k)
	for v, s := range owner {
		globals[s] = append(globals[s], int32(v)) // ascending global order
		nOwned[s]++
	}
	for s := 0; s < k; s++ {
		var halo []int32
		for _, v := range globals[s] {
			for _, u := range adj(v) {
				if owner[u] != int32(s) {
					halo = append(halo, u)
				}
			}
		}
		slices.Sort(halo)
		halo = slices.Compact(halo)
		globals[s] = append(globals[s], halo...)
		l.HaloCopies += len(halo)
	}

	// Exchange maps. Iterating receivers in shard order and halo slots in
	// ascending global order appends to SendTo and RecvFrom in lockstep, so
	// the two sides of every link agree position-by-position.
	halos := l.halos
	for s := range halos {
		halos[s].SendTo = make([][]int32, k)
		halos[s].RecvFrom = make([][]int32, k)
	}
	for s := 0; s < k; s++ {
		for h := nOwned[s]; h < len(globals[s]); h++ {
			u := globals[s][h]
			j := owner[u]
			lu, _ := slices.BinarySearch(globals[j][:nOwned[j]], u)
			halos[j].SendTo[s] = append(halos[j].SendTo[s], int32(lu))
			halos[s].RecvFrom[j] = append(halos[s].RecvFrom[j], int32(h))
		}
	}
	for s := range halos {
		for j := 0; j < k; j++ {
			if len(halos[s].SendTo[j]) > 0 || len(halos[s].RecvFrom[j]) > 0 {
				halos[s].Neighbors = append(halos[s].Neighbors, j)
			}
		}
	}
	return globals, nOwned, nil
}

// bandOf builds g's band over the local vertex list global (owned first)
// and the edges ids (ascending). localOf (length n) and edgeLocal (length
// m) are scratch shared across shards: every entry read is written for the
// current band first.
func bandOf(g *graph.Graph, global []int32, nOwned int, ids, localOf, edgeLocal []int32) graph.Band {
	b := graph.Band{Global: global, NOwned: nOwned, RowPtr: make([]int32, nOwned+1)}
	for l, v := range global {
		localOf[v] = int32(l)
	}
	for i, v := range global[:nOwned] {
		b.RowPtr[i+1] = b.RowPtr[i] + int32(g.Deg(int(v)))
	}
	b.Edges = make([]graph.Edge, len(ids))
	for le, id := range ids {
		ge := g.Edge(int(id))
		b.Edges[le] = graph.Edge{U: localOf[ge.U], V: localOf[ge.V], ID: id}
		edgeLocal[id] = int32(le)
	}
	b.Nbr = make([]int32, b.RowPtr[nOwned])
	b.EdgeSlot = make([]int32, b.RowPtr[nOwned])
	pos := 0
	for _, v := range global[:nOwned] {
		adj, inc := g.Adj(int(v)), g.Inc(int(v))
		for t := range adj {
			b.Nbr[pos] = localOf[adj[t]]
			b.EdgeSlot[pos] = edgeLocal[inc[t]]
			pos++
		}
	}
	return b
}
