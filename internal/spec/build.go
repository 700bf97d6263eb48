package spec

import (
	"fmt"

	"locsample/internal/csp"
	"locsample/internal/graph"
	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// Built is the live workload a spec describes: the graph plus exactly one
// of an MRF or a CSP.
type Built struct {
	// Spec is the validated spec this was built from.
	Spec *Spec
	// Hash is the spec's canonical content address.
	Hash string
	// Graph is the network.
	Graph *graph.Graph
	// MRF is the model for every kind except "csp"; nil otherwise.
	MRF *mrf.MRF
	// CSP is the model for kind "csp"; nil otherwise.
	CSP *csp.CSP
	// Init is the resolved feasible starting configuration for CSP
	// workloads (the spec's init, or a derived uniform one); nil for MRFs,
	// whose init is resolved by core.Compile.
	Init []int
	// Rounds is the CSP default chain-iteration budget (0 when the spec
	// left it to the request); 0 for MRFs.
	Rounds int
	// Shards is the default shard count for served draws (0 when the spec
	// left it to the request).
	Shards int
	// Parallel is the default vertex-parallel worker count for served
	// draws (0 when the spec left it to the request).
	Parallel int
}

// Build validates s, constructs its graph and model, and — for CSPs —
// resolves a feasible initial configuration. The same spec always builds
// the same workload (random graph families are seeded).
func Build(s *Spec) (*Built, error) {
	h, err := Hash(s) // validates
	if err != nil {
		return nil, err
	}
	return BuildValid(s, h)
}

// BuildValid is Build for a spec that Decode or DecodeHash returned, so
// already validated: it neither validates nor hashes again, and records
// hash, the spec's content address, as Built.Hash ("" when the caller has
// no use for it).
func BuildValid(s *Spec, hash string) (*Built, error) {
	g, err := buildGraph(&s.Graph)
	if err != nil {
		return nil, err
	}
	b := &Built{Spec: s, Hash: hash, Graph: g}
	ms := &s.Model
	switch ms.Kind {
	case "coloring":
		b.MRF = mrf.Coloring(g, ms.Q)
	case "listcoloring":
		b.MRF, err = mrf.ListColoring(g, ms.Q, ms.Lists)
	case "hardcore":
		b.MRF = mrf.Hardcore(g, ms.Lambda)
	case "independentset":
		b.MRF = mrf.UniformIndependentSet(g)
	case "vertexcover":
		b.MRF = mrf.VertexCover(g)
	case "ising":
		b.MRF = mrf.Ising(g, ms.Beta, ms.Field)
	case "potts":
		b.MRF = mrf.Potts(g, ms.Q, ms.Beta)
	case "mrf":
		b.MRF, err = buildMRF(g, ms)
	case "csp":
		b.CSP, b.Init, err = buildCSP(g, ms)
		b.Rounds = ms.Rounds
	default:
		err = fmt.Errorf("spec: unknown model kind %q", ms.Kind)
	}
	if err != nil {
		return nil, err
	}
	b.Shards = ms.Shards
	b.Parallel = ms.Parallel
	return b, nil
}

func buildGraph(gs *GraphSpec) (*graph.Graph, error) {
	fam := gs.Family
	if fam == "" && len(gs.Edges) > 0 {
		fam = "edges"
	}
	switch fam {
	case "edges":
		b := graph.NewBuilder(gs.N)
		for _, e := range gs.Edges {
			b.AddEdge(e[0], e[1])
		}
		return b.Build(), nil
	case "path":
		return graph.Path(gs.N), nil
	case "cycle":
		return graph.Cycle(gs.N), nil
	case "grid":
		return graph.Grid(gs.Rows, gs.Cols), nil
	case "torus":
		return graph.Torus(gs.Rows, gs.Cols), nil
	case "complete":
		return graph.Complete(gs.N), nil
	case "star":
		return graph.Star(gs.N), nil
	case "bipartite":
		return graph.CompleteBipartite(gs.A, gs.B), nil
	case "tree":
		return graph.CompleteTree(gs.Arity, gs.Depth), nil
	case "hypercube":
		return graph.Hypercube(gs.Dim), nil
	case "regular":
		return graph.RandomRegular(gs.N, gs.Degree, rng.New(gs.Seed))
	case "gnp":
		return graph.Gnp(gs.N, gs.P, rng.New(gs.Seed)), nil
	default:
		return nil, fmt.Errorf("spec: unknown graph family %q", fam)
	}
}

func buildMRF(g *graph.Graph, ms *ModelSpec) (*mrf.MRF, error) {
	q := ms.Q
	edgeA := make([]*mrf.Mat, g.M())
	if len(ms.EdgeActivities) == 1 {
		a := matFromRow(q, ms.EdgeActivities[0])
		for i := range edgeA {
			edgeA[i] = a
		}
	} else {
		for i := range edgeA {
			edgeA[i] = matFromRow(q, ms.EdgeActivities[i])
		}
	}
	vertexB := expandVertexActivities(ms.VertexActivities, g.N())
	return mrf.New(g, q, edgeA, vertexB)
}

func matFromRow(q int, row []float64) *mrf.Mat {
	a := mrf.NewMat(q)
	copy(a.A, row)
	return a
}

// expandVertexActivities turns a 1-(shared) or n-entry activity list into
// n rows. Shared rows may alias: MRF/CSP construction treats them as
// read-only.
func expandVertexActivities(bs [][]float64, n int) [][]float64 {
	out := make([][]float64, n)
	if len(bs) == 1 {
		for i := range out {
			out[i] = bs[0]
		}
		return out
	}
	copy(out, bs)
	return out
}

func buildCSP(g *graph.Graph, ms *ModelSpec) (*csp.CSP, []int, error) {
	q := ms.Q
	n := g.N()
	var vertexB [][]float64
	if len(ms.VertexActivities) == 0 {
		ones := make([]float64, q)
		for i := range ones {
			ones[i] = 1
		}
		vertexB = expandVertexActivities([][]float64{ones}, n)
	} else {
		vertexB = expandVertexActivities(ms.VertexActivities, n)
	}
	cons := make([]csp.Constraint, len(ms.Constraints))
	for i := range ms.Constraints {
		cs := &ms.Constraints[i]
		scope := make([]int32, len(cs.Scope))
		for j, v := range cs.Scope {
			scope[j] = int32(v)
		}
		var f func([]int) float64
		switch cs.Kind {
		case "table":
			f = tableFactor(q, cs.Table)
		case "cover":
			f = coverFactor
		case "notallequal":
			f = notAllEqualFactor
		default:
			return nil, nil, fmt.Errorf("spec: constraint %d has unknown kind %q", i, cs.Kind)
		}
		cons[i] = csp.Constraint{Scope: scope, F: f}
	}
	c, err := csp.New(n, q, vertexB, cons)
	if err != nil {
		return nil, nil, err
	}
	init, err := resolveInit(c, ms)
	if err != nil {
		return nil, nil, err
	}
	return c, init, nil
}

// tableFactor indexes the flat q^arity table with scope position 0 varying
// fastest — the same digit order as the domain enumerations elsewhere in
// the repository.
func tableFactor(q int, table []float64) func([]int) float64 {
	return func(vals []int) float64 {
		idx := 0
		stride := 1
		for _, v := range vals {
			idx += v * stride
			stride *= q
		}
		return table[idx]
	}
}

func coverFactor(vals []int) float64 {
	for _, x := range vals {
		if x == 1 {
			return 1
		}
	}
	return 0
}

func notAllEqualFactor(vals []int) float64 {
	for _, x := range vals[1:] {
		if x != vals[0] {
			return 1
		}
	}
	return 0
}

// resolveInit returns the spec's explicit init (checked feasible), or
// derives a deterministic feasible one: the first feasible uniform
// configuration, then the v mod q striping. Chains need a feasible start;
// unlike MRFs there is no general greedy construction for CSPs, so specs
// whose feasible region excludes these candidates must pin init
// explicitly.
func resolveInit(c *csp.CSP, ms *ModelSpec) ([]int, error) {
	if len(ms.Init) != 0 {
		init := append([]int(nil), ms.Init...)
		if !c.Feasible(init) {
			return nil, fmt.Errorf("spec: csp init is infeasible (zero weight)")
		}
		return init, nil
	}
	init := make([]int, c.N)
	for a := 0; a < c.Q; a++ {
		for v := range init {
			init[v] = a
		}
		if c.Feasible(init) {
			return init, nil
		}
	}
	for v := range init {
		init[v] = v % c.Q
	}
	if c.Feasible(init) {
		return init, nil
	}
	return nil, fmt.Errorf("spec: no default feasible init found; supply model.init")
}

// FromMRF exports an in-memory MRF back to the wire format: an explicit
// edge list and per-edge/per-vertex activity tables of kind "mrf". The
// result round-trips: Build(FromMRF(m)) defines the same Gibbs
// distribution as m.
func FromMRF(m *mrf.MRF, name string) *Spec {
	g := m.G
	edges := make([][2]int, g.M())
	for id, e := range g.Edges() {
		edges[id] = [2]int{int(e.U), int(e.V)}
	}
	edgeA := make([][]float64, g.M())
	for id, a := range m.EdgeA {
		edgeA[id] = append([]float64(nil), a.A...)
	}
	vertexB := make([][]float64, g.N())
	for v, b := range m.VertexB {
		vertexB[v] = append([]float64(nil), b...)
	}
	return &Spec{
		Version: Version,
		Name:    name,
		Graph:   GraphSpec{Family: "edges", N: g.N(), Edges: edges},
		Model: ModelSpec{
			Kind:             "mrf",
			Q:                m.Q,
			EdgeActivities:   edgeA,
			VertexActivities: vertexB,
		},
	}
}

// FromCSP exports an in-memory CSP back to the wire format: kind "csp"
// with every constraint as an explicit "table" factor read off the
// compiled tables (scope position 0 varying fastest — the wire codec's
// digit order). The result round-trips bit-exactly: Build re-enumerates
// the tables to the same float64 values, so a worker rebuilding the CSP
// from this spec runs the identical chain. g supplies the network edge
// list (nil means no network — an empty edge list); init must be a
// feasible start and is pinned in the spec, rounds its default budget.
// Constraints whose arity exceeds the wire limit, or whose factors were
// too large to compile to tables, cannot be exported.
func FromCSP(c *csp.CSP, g *graph.Graph, init []int, rounds int, name string) (*Spec, error) {
	gs := GraphSpec{Family: "edges", N: c.N}
	if g != nil {
		if g.N() != c.N {
			return nil, fmt.Errorf("spec: CSP has %d vertices, network %d", c.N, g.N())
		}
		gs.Edges = make([][2]int, g.M())
		for id, e := range g.Edges() {
			gs.Edges[id] = [2]int{int(e.U), int(e.V)}
		}
	} else {
		gs.Edges = [][2]int{}
	}
	cons := make([]ConstraintSpec, len(c.Cons))
	for i := range c.Cons {
		scope := c.Cons[i].Scope
		if len(scope) > MaxArity {
			return nil, fmt.Errorf("spec: constraint %d arity %d exceeds the wire limit %d", i, len(scope), MaxArity)
		}
		tab := c.TableOf(i)
		if tab == nil {
			return nil, fmt.Errorf("spec: constraint %d has no compiled table to export", i)
		}
		cs := ConstraintSpec{Kind: "table", Scope: make([]int, len(scope)), Table: append([]float64(nil), tab...)}
		for j, v := range scope {
			cs.Scope[j] = int(v)
		}
		cons[i] = cs
	}
	vertexB := make([][]float64, c.N)
	for v, b := range c.VertexB {
		vertexB[v] = append([]float64(nil), b...)
	}
	s := &Spec{
		Version: Version,
		Name:    name,
		Graph:   gs,
		Model: ModelSpec{
			Kind:             "csp",
			Q:                c.Q,
			VertexActivities: vertexB,
			Constraints:      cons,
			Init:             append([]int(nil), init...),
			Rounds:           rounds,
		},
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}
