// Package graph implements the undirected (multi-)graphs on which every
// model in this repository lives.
//
// The paper's constructions require genuine multigraph support: the random
// bipartite gadget of §5.1.1 is a union of independently sampled perfect
// matchings ("the union of all these matchings gives us the random bipartite
// (multi-)graph"), and the lifted cycle H^G of §5.1.2 is Δ-regular only if
// parallel edges are kept. Edges therefore have identities: activities and
// filter coins attach to edge IDs, not endpoint pairs.
package graph

import (
	"fmt"
	"slices"
	"sync"
)

// Edge is an undirected edge between vertices U and V (U == V is rejected by
// Builder; self-loops never arise in the paper's models). ID is the edge's
// index in its graph's edge list; it keys the edge's activity and its
// shared filter coin, so a Band keeps it global while renumbering U and V.
type Edge struct {
	U, V int32
	ID   int32
}

// Other returns the endpoint of e opposite to v.
func (e Edge) Other(v int32) int32 {
	if e.U == v {
		return e.V
	}
	return e.U
}

// Graph is an immutable undirected multigraph with n vertices labelled
// 0..n-1. Construct one with a Builder or with the generators in this
// package.
type Graph struct {
	n     int
	edges []Edge
	// The adjacency is stored in compressed-sparse-row form: rowPtr has
	// n+1 entries and vertex v's incident slots occupy [rowPtr[v],
	// rowPtr[v+1]) of the flat arrays — nbrFlat lists the neighbors, one
	// entry per incident edge (parallel edges contribute multiple
	// entries), and incFlat the incident edge IDs aligned with them. The
	// hot loops of internal/chains sweep the whole vertex set every round,
	// so keeping all neighbor and edge-ID data in two contiguous arrays
	// (rather than n separately allocated lists) is what makes those
	// sweeps cache-friendly.
	rowPtr  []int32
	nbrFlat []int32
	incFlat []int32
	maxDeg  int

	bandOnce sync.Once
	band     *Band
}

// Builder accumulates edges and produces an immutable Graph.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph on n vertices. It panics if
// n < 0.
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic("graph: negative vertex count")
	}
	return &Builder{n: n}
}

// AddEdge appends an undirected edge {u, v}. Parallel edges are allowed;
// self-loops are not. It returns the new edge's ID.
func (b *Builder) AddEdge(u, v int) int {
	if u < 0 || u >= b.n || v < 0 || v >= b.n {
		panic(fmt.Sprintf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n))
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop at %d", u))
	}
	id := len(b.edges)
	b.edges = append(b.edges, Edge{U: int32(u), V: int32(v), ID: int32(id)})
	return id
}

// Build finalizes the graph, laying the adjacency out in CSR form.
func (b *Builder) Build() *Graph {
	if len(b.edges) > (1<<31-1)/2 {
		panic(fmt.Sprintf("graph: %d edges overflow the int32 CSR offsets", len(b.edges)))
	}
	g := &Graph{
		n:       b.n,
		edges:   append(make([]Edge, 0, len(b.edges)), b.edges...),
		rowPtr:  make([]int32, b.n+1),
		nbrFlat: make([]int32, 2*len(b.edges)),
		incFlat: make([]int32, 2*len(b.edges)),
	}
	deg := make([]int32, b.n)
	for _, e := range g.edges {
		deg[e.U]++
		deg[e.V]++
	}
	for v := 0; v < b.n; v++ {
		g.rowPtr[v+1] = g.rowPtr[v] + deg[v]
		if int(deg[v]) > g.maxDeg {
			g.maxDeg = int(deg[v])
		}
	}
	cursor := make([]int32, b.n)
	copy(cursor, g.rowPtr[:b.n])
	for id, e := range g.edges {
		g.nbrFlat[cursor[e.U]] = e.V
		g.incFlat[cursor[e.U]] = int32(id)
		cursor[e.U]++
		g.nbrFlat[cursor[e.V]] = e.U
		g.incFlat[cursor[e.V]] = int32(id)
		cursor[e.V]++
	}
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return g.n }

// M returns the number of edges (parallel edges counted with multiplicity).
func (g *Graph) M() int { return len(g.edges) }

// Edge returns the edge with the given ID.
func (g *Graph) Edge(id int) Edge { return g.edges[id] }

// Edges returns the edge list. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Deg returns the degree of v (parallel edges counted with multiplicity).
func (g *Graph) Deg(v int) int { return int(g.rowPtr[v+1] - g.rowPtr[v]) }

// MaxDeg returns the maximum degree Δ of the graph.
func (g *Graph) MaxDeg() int { return g.maxDeg }

// Adj returns the neighbor list of v (one entry per incident edge). The
// caller must not modify it.
func (g *Graph) Adj(v int) []int32 { return g.nbrFlat[g.rowPtr[v]:g.rowPtr[v+1]:g.rowPtr[v+1]] }

// Inc returns the incident-edge-ID list of v, aligned with Adj(v). The
// caller must not modify it.
func (g *Graph) Inc(v int) []int32 { return g.incFlat[g.rowPtr[v]:g.rowPtr[v+1]:g.rowPtr[v+1]] }

// CSR exposes the flat compressed-sparse-row adjacency: vertex v's incident
// slots occupy [rowPtr[v], rowPtr[v+1]) of nbr (neighbor vertex per slot)
// and inc (edge ID per slot), in the same order Adj/Inc present them. The
// round kernels in internal/chains and internal/mrf sweep every vertex every
// round; walking these arrays directly spares them a slice-header load per
// vertex. Callers must not modify the arrays.
func (g *Graph) CSR() (rowPtr, nbr, inc []int32) {
	return g.rowPtr, g.nbrFlat, g.incFlat
}

// HasEdge reports whether at least one edge joins u and v.
func (g *Graph) HasEdge(u, v int) bool {
	// Scan the smaller adjacency list.
	a, b := u, v
	if g.Deg(a) > g.Deg(b) {
		a, b = b, a
	}
	for _, w := range g.Adj(a) {
		if int(w) == b {
			return true
		}
	}
	return false
}

// SimpleNeighbors returns the deduplicated sorted neighbor set of v (useful
// on multigraphs, where Adj may repeat vertices).
func (g *Graph) SimpleNeighbors(v int) []int32 {
	out := slices.Clone(g.Adj(v))
	slices.Sort(out)
	return slices.Compact(out)
}

// BFS performs a breadth-first search from src and returns the distance
// slice (|V| entries, -1 for unreachable vertices).
func (g *Graph) BFS(src int) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, g.n)
	queue = append(queue, int32(src))
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.Adj(int(v)) {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Dist returns the shortest-path distance between u and v, or -1 if
// disconnected.
func (g *Graph) Dist(u, v int) int {
	return g.BFS(u)[v]
}

// Connected reports whether the graph is connected (true for n <= 1).
func (g *Graph) Connected() bool {
	if g.n <= 1 {
		return true
	}
	for _, d := range g.BFS(0) {
		if d == -1 {
			return false
		}
	}
	return true
}

// Diameter returns the exact diameter via all-pairs BFS, or -1 if the graph
// is disconnected or empty. O(n·m); intended for the laptop-scale instances
// used in experiments.
func (g *Graph) Diameter() int {
	if g.n == 0 {
		return -1
	}
	diam := 0
	for v := 0; v < g.n; v++ {
		for _, d := range g.BFS(v) {
			if d == -1 {
				return -1
			}
			if d > diam {
				diam = d
			}
		}
	}
	return diam
}

// Eccentricity returns max_u dist(v, u), or -1 if some vertex is
// unreachable from v.
func (g *Graph) Eccentricity(v int) int {
	ecc := 0
	for _, d := range g.BFS(v) {
		if d == -1 {
			return -1
		}
		if d > ecc {
			ecc = d
		}
	}
	return ecc
}

// Ball returns the set of vertices within distance r of v (the r-ball
// B_r(v) of §2.4), as a sorted slice.
func (g *Graph) Ball(v, r int) []int {
	dist := g.BFS(v)
	var out []int
	for u, d := range dist {
		if d >= 0 && d <= r {
			out = append(out, u)
		}
	}
	return out
}

// IsIndependentSet reports whether the 0/1 vector sigma (1 = in the set)
// marks an independent set.
func (g *Graph) IsIndependentSet(sigma []int) bool {
	for _, e := range g.edges {
		if sigma[e.U] == 1 && sigma[e.V] == 1 {
			return false
		}
	}
	return true
}

// IsVertexCover reports whether the 0/1 vector sigma (1 = in the cover)
// marks a vertex cover.
func (g *Graph) IsVertexCover(sigma []int) bool {
	for _, e := range g.edges {
		if sigma[e.U] == 0 && sigma[e.V] == 0 {
			return false
		}
	}
	return true
}

// IsDominatingSet reports whether the 0/1 vector sigma (1 = in the set)
// marks a dominating set: every vertex has a member of the set in its
// inclusive neighborhood Γ⁺(v).
func (g *Graph) IsDominatingSet(sigma []int) bool {
	for v := 0; v < g.n; v++ {
		if sigma[v] == 1 {
			continue
		}
		dominated := false
		for _, u := range g.Adj(v) {
			if sigma[u] == 1 {
				dominated = true
				break
			}
		}
		if !dominated {
			return false
		}
	}
	return true
}

// IsMaximalIndependentSet reports whether sigma marks an MIS (an independent
// dominating set).
func (g *Graph) IsMaximalIndependentSet(sigma []int) bool {
	return g.IsIndependentSet(sigma) && g.IsDominatingSet(sigma)
}

// IsProperColoring reports whether sigma assigns distinct colors to the
// endpoints of every edge.
func (g *Graph) IsProperColoring(sigma []int) bool {
	for _, e := range g.edges {
		if sigma[e.U] == sigma[e.V] {
			return false
		}
	}
	return true
}

// GreedyColoring colors vertices 0..n-1 in index order with the smallest
// color not used by an already-colored neighbor. It uses at most Δ+1 colors
// and returns the coloring and the number of colors used.
func (g *Graph) GreedyColoring() (colors []int, used int) {
	colors = make([]int, g.n)
	for i := range colors {
		colors[i] = -1
	}
	taken := make([]bool, g.maxDeg+2)
	for v := 0; v < g.n; v++ {
		for i := range taken {
			taken[i] = false
		}
		for _, u := range g.Adj(v) {
			if c := colors[u]; c >= 0 {
				taken[c] = true
			}
		}
		c := 0
		for taken[c] {
			c++
		}
		colors[v] = c
		if c+1 > used {
			used = c + 1
		}
	}
	return colors, used
}

// DegreeHistogram returns counts[d] = number of vertices of degree d.
func (g *Graph) DegreeHistogram() []int {
	counts := make([]int, g.maxDeg+1)
	for v := 0; v < g.n; v++ {
		counts[g.Deg(v)]++
	}
	return counts
}

// IsRegular reports whether every vertex has degree d.
func (g *Graph) IsRegular(d int) bool {
	for v := 0; v < g.n; v++ {
		if g.Deg(v) != d {
			return false
		}
	}
	return true
}

// ConnectedComponents returns the component index of every vertex (indices
// are dense, assigned in discovery order) and the number of components.
func (g *Graph) ConnectedComponents() (comp []int, count int) {
	comp = make([]int, g.n)
	for i := range comp {
		comp[i] = -1
	}
	queue := make([]int32, 0, g.n)
	for src := 0; src < g.n; src++ {
		if comp[src] != -1 {
			continue
		}
		comp[src] = count
		queue = append(queue[:0], int32(src))
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			for _, u := range g.Adj(int(v)) {
				if comp[u] == -1 {
					comp[u] = count
					queue = append(queue, u)
				}
			}
		}
		count++
	}
	return comp, count
}
