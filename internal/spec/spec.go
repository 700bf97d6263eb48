// Package spec is the wire format of the serving subsystem: a versioned
// JSON codec for graphs and every public model family, with strict
// validation and a canonical content hash.
//
// A Spec fully describes a sampling workload — the network, the Gibbs
// distribution on it, and (for CSPs, which have no theory round budget)
// optional serving defaults — in plain data: no Go code, no closures. It is
// the contract between clients and cmd/lserved, between spec files and
// cmd/lsample's -model-file flag, and between registry entries and the
// compiled-sampler cache, which is keyed by the canonical hash.
//
// Canonical form. The canonical encoding of a spec is exactly the bytes
// json.Marshal produces for it: struct fields in fixed declaration order,
// omitempty zero elision, HTML-safe string escapes and Go's
// shortest-round-trip float formatting. Encode writes those bytes with a
// hand encoder, and Decode parses with a decoder written for this schema
// that accepts exactly what encoding/json (with unknown fields disallowed)
// accepts, yielding the same values; neither goes through reflection.
// TestHashGolden pins the content addresses and FuzzDecodeMatchesJSON
// holds both halves to encoding/json. Decode(Encode(s)) is the identity on
// valid specs and Encode(Decode(b)) is a fixpoint after one round trip
// (FuzzSpecRoundTrip), so
//
//	Hash(s) = "sha256:" + hex(SHA-256(Encode(s)))
//
// is a well-defined content address: two specs hash equal iff they decode
// to the same workload. DecodeHash decodes, validates and hashes in one
// pass, which is how the serving layer registers a spec.
package spec

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sync"
)

// Version is the wire-format version every spec must declare.
const Version = "locsample/v1"

// Validation limits. They bound what a remote client can make the server
// build: decode rejects anything larger before any graph or table is
// allocated.
const (
	// MaxSpecBytes bounds the encoded spec size Decode accepts.
	MaxSpecBytes = 8 << 20
	// MaxVertices bounds graph order (explicit or generated).
	MaxVertices = 1 << 20
	// MaxEdges bounds graph size (explicit or generated).
	MaxEdges = 1 << 22
	// MaxQ bounds the spin domain.
	MaxQ = 1 << 10
	// MaxConstraints bounds the constraint count of a CSP spec.
	MaxConstraints = 1 << 20
	// MaxArity bounds CSP constraint scope size (tables are q^arity).
	MaxArity = 8
	// MaxShards bounds the per-model default shard count.
	MaxShards = 1 << 10
	// MaxParallel bounds the per-model default vertex-parallel worker count.
	MaxParallel = 1 << 10
	// MaxTableEntries bounds the total constraint-table entries of a spec.
	MaxTableEntries = 1 << 22
)

// Spec is the top-level wire object: a graph plus a model on it.
type Spec struct {
	// Version must equal Version ("locsample/v1").
	Version string `json:"version"`
	// Name is an optional human label; it participates in the hash.
	Name string `json:"name,omitempty"`
	// Graph describes the network.
	Graph GraphSpec `json:"graph"`
	// Model describes the Gibbs distribution on the graph.
	Model ModelSpec `json:"model"`
}

// GraphSpec describes a graph either as an explicit edge list or as one of
// the generator families of internal/graph. Generated families with
// randomness (gnp, regular) are seeded, so a spec still names one concrete
// graph.
type GraphSpec struct {
	// Family selects a generator: path|cycle|grid|torus|complete|star|
	// bipartite|tree|hypercube|regular|gnp, or "edges" (the default when
	// empty and Edges is set) for an explicit edge list.
	Family string `json:"family,omitempty"`
	// N is the vertex count (path, cycle, complete, star, regular, gnp;
	// required for explicit edge lists).
	N int `json:"n,omitempty"`
	// Rows and Cols size grid and torus graphs.
	Rows int `json:"rows,omitempty"`
	Cols int `json:"cols,omitempty"`
	// Dim is the hypercube dimension.
	Dim int `json:"dim,omitempty"`
	// Degree is the regular-graph degree; Arity and Depth size the
	// complete tree; A and B size the complete bipartite graph.
	Degree int `json:"degree,omitempty"`
	Arity  int `json:"arity,omitempty"`
	Depth  int `json:"depth,omitempty"`
	A      int `json:"a,omitempty"`
	B      int `json:"b,omitempty"`
	// P is the G(n,p) edge probability.
	P float64 `json:"p,omitempty"`
	// Seed drives the random families (gnp, regular).
	Seed uint64 `json:"seed,omitempty"`
	// Edges is the explicit edge list (family "edges"); parallel edges are
	// allowed, self-loops are not.
	Edges [][2]int `json:"edges,omitempty"`
}

// ModelSpec describes the Gibbs distribution. Kind selects the family;
// the other fields are per-family parameters.
type ModelSpec struct {
	// Kind is one of coloring|listcoloring|hardcore|independentset|
	// vertexcover|ising|potts|mrf|csp.
	Kind string `json:"kind"`
	// Q is the spin-domain size (coloring, listcoloring, potts, mrf, csp).
	Q int `json:"q,omitempty"`
	// Lambda is the hardcore fugacity.
	Lambda float64 `json:"lambda,omitempty"`
	// Beta is the Ising/Potts edge parameter.
	Beta float64 `json:"beta,omitempty"`
	// Field is the Ising external field.
	Field float64 `json:"field,omitempty"`
	// Lists[v] is vertex v's palette (listcoloring).
	Lists [][]int `json:"lists,omitempty"`
	// EdgeActivities holds q×q symmetric matrices row-major (kind mrf):
	// either one shared matrix or one per edge, in edge-ID order.
	EdgeActivities [][]float64 `json:"edgeActivities,omitempty"`
	// VertexActivities holds length-q activity vectors (kinds mrf and
	// csp): either one shared vector or one per vertex.
	VertexActivities [][]float64 `json:"vertexActivities,omitempty"`
	// Constraints lists the weighted local constraints (kind csp).
	Constraints []ConstraintSpec `json:"constraints,omitempty"`
	// Init optionally pins the chain's starting configuration (kind csp,
	// which needs a feasible start the server cannot always derive).
	Init []int `json:"init,omitempty"`
	// Rounds optionally sets the default chain-iteration budget (kind
	// csp, which has no theory budget; requests may override it).
	Rounds int `json:"rounds,omitempty"`
	// Shards optionally sets the default shard count the serving layer
	// runs this model's draws with (every kind, CSPs included; requests may
	// override it). Sharding never changes outputs — a sharded draw is
	// bit-identical to the centralized chain at the same seed — so this is
	// a serving default, not part of the distribution.
	Shards int `json:"shards,omitempty"`
	// Parallel optionally sets the default vertex-parallel worker count the
	// serving layer runs this model's centralized draws with (every kind,
	// CSPs included; requests may override it). Like Shards it never
	// changes outputs — parallel rounds are bit-identical to sequential
	// rounds at every worker count — and the two are mutually exclusive per
	// draw.
	Parallel int `json:"parallel,omitempty"`
}

// ConstraintSpec is one weighted local constraint in serializable form.
type ConstraintSpec struct {
	// Kind is "table" (explicit factor values), "cover" (at least one
	// scope vertex has spin 1; requires q = 2), or "notallequal" (the
	// scope is not monochromatic).
	Kind string `json:"kind"`
	// Scope lists the distinct vertices the constraint reads.
	Scope []int `json:"scope"`
	// Table holds the q^len(Scope) factor values for kind "table",
	// with Scope[0] varying fastest.
	Table []float64 `json:"table,omitempty"`
}

// Decode parses, strictly validates, and returns a spec. Unknown fields,
// trailing data, oversized payloads, wrong versions, and semantically
// invalid workloads are all rejected.
func Decode(data []byte) (*Spec, error) {
	if len(data) > MaxSpecBytes {
		return nil, fmt.Errorf("spec: %d bytes exceeds the %d-byte limit", len(data), MaxSpecBytes)
	}
	s, err := decodeJSON(data)
	if err != nil {
		return nil, err
	}
	s.Graph.normalize()
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// DecodeHash is Decode followed by Hash, validating once: it returns the
// spec together with its content address.
func DecodeHash(data []byte) (*Spec, string, error) {
	s, err := Decode(data)
	if err != nil {
		return nil, "", err
	}
	return s, hashValid(s), nil
}

// Encode validates s and returns its canonical JSON encoding — the byte
// string the content hash is computed over. s itself is never modified;
// the canonical default-family spelling is applied to a copy.
func Encode(s *Spec) ([]byte, error) {
	c, err := canonical(s)
	if err != nil {
		return nil, err
	}
	var data []byte
	withEncoding(c, func(enc []byte) { data = slices.Clone(enc) })
	return data, nil
}

// Hash returns the canonical content address of s:
// "sha256:" + hex(SHA-256(Encode(s))).
func Hash(s *Spec) (string, error) {
	c, err := canonical(s)
	if err != nil {
		return "", err
	}
	return hashValid(c), nil
}

// canonical returns s with the default family spelling normalized (a
// shallow copy when that changes anything), after validating it.
func canonical(s *Spec) (*Spec, error) {
	if s.Graph.Family == "" && len(s.Graph.Edges) > 0 {
		c := *s // shallow copy: normalization only writes Graph.Family
		c.Graph.normalize()
		s = &c
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return s, nil
}

// hashValid hashes a validated, normalized spec.
func hashValid(s *Spec) string {
	var sum [sha256.Size]byte
	withEncoding(s, func(enc []byte) { sum = sha256.Sum256(enc) })
	return "sha256:" + hex.EncodeToString(sum[:])
}

// encodeBufs recycles encoding buffers, so encoding a large spec does not
// grow a fresh buffer from empty each time.
var encodeBufs sync.Pool // of *[]byte

// withEncoding encodes a validated, normalized spec into a recycled
// buffer and passes the bytes to use, which must not retain them.
func withEncoding(s *Spec, use func([]byte)) {
	bp, _ := encodeBufs.Get().(*[]byte)
	if bp == nil {
		bp = new([]byte)
	}
	*bp = appendSpec((*bp)[:0], s)
	use(*bp)
	encodeBufs.Put(bp)
}

// Validate checks the spec semantically: version, graph family and
// parameters, model family and parameters, and every size limit. It does
// not build or modify anything.
func (s *Spec) Validate() error {
	if s.Version != Version {
		return fmt.Errorf("spec: version %q, want %q", s.Version, Version)
	}
	if err := s.Graph.checkStray(); err != nil {
		return err
	}
	n, m, err := s.Graph.size()
	if err != nil {
		return err
	}
	return s.Model.validate(n, m, s.Graph.Family == "gnp")
}

// normalize canonicalizes the default family spelling: an empty family
// with an edge list becomes the explicit "edges", so every accepted
// spelling of a workload encodes — and therefore hashes — identically.
// Decode applies it to the value it owns; Encode applies it to a copy.
func (g *GraphSpec) normalize() {
	if g.Family == "" && len(g.Edges) > 0 {
		g.Family = "edges"
	}
}

// graphFieldsByFamily names the GraphSpec fields each family reads.
// Validation rejects set fields outside the family's row: an inert
// parameter (say, a seed on a grid) would be silently ignored by Build yet
// still change the content hash, splitting one workload across several
// registry and cache entries.
var graphFieldsByFamily = map[string][]string{
	"edges":     {"n", "edges"},
	"path":      {"n"},
	"cycle":     {"n"},
	"complete":  {"n"},
	"star":      {"n"},
	"grid":      {"rows", "cols"},
	"torus":     {"rows", "cols"},
	"bipartite": {"a", "b"},
	"tree":      {"arity", "depth"},
	"hypercube": {"dim"},
	"regular":   {"n", "degree", "seed"},
	"gnp":       {"n", "p", "seed"},
}

// checkStray rejects graph fields set to non-zero values that the declared
// family does not read, naming the first in declaration order.
func (g *GraphSpec) checkStray() error {
	fam := g.Family
	if fam == "" && len(g.Edges) > 0 {
		fam = "edges"
	}
	allowed, ok := graphFieldsByFamily[fam]
	if !ok {
		return nil // size() reports unknown families with a better message
	}
	fields := [...]setField{
		{"n", g.N != 0},
		{"rows", g.Rows != 0},
		{"cols", g.Cols != 0},
		{"dim", g.Dim != 0},
		{"degree", g.Degree != 0},
		{"arity", g.Arity != 0},
		{"depth", g.Depth != 0},
		{"a", g.A != 0},
		{"b", g.B != 0},
		{"p", g.P != 0},
		{"seed", g.Seed != 0},
		{"edges", len(g.Edges) != 0},
	}
	if name := firstStray(fields[:], allowed); name != "" {
		return fmt.Errorf("spec: graph family %q does not take field %q", g.Family, name)
	}
	return nil
}

// setField records whether a spec field holds a non-zero value.
type setField struct {
	name string
	set  bool
}

// firstStray returns the name of the first set field not in allowed, or "".
func firstStray(fields []setField, allowed []string) string {
	for _, f := range fields {
		if f.set && !slices.Contains(allowed, f.name) {
			return f.name
		}
	}
	return ""
}

// size validates the graph spec and returns the vertex and edge counts the
// built graph will have (edge counts for random families are upper bounds
// used only for limit checks).
func (g *GraphSpec) size() (n, m int, err error) {
	fam := g.Family
	if fam == "" && len(g.Edges) > 0 {
		fam = "edges"
	}
	switch fam {
	case "edges":
		n, m = g.N, len(g.Edges)
		if n < 1 {
			return 0, 0, fmt.Errorf("spec: graph needs n >= 1, got %d", g.N)
		}
		for i, e := range g.Edges {
			if e[0] < 0 || e[0] >= n || e[1] < 0 || e[1] >= n {
				return 0, 0, fmt.Errorf("spec: edge %d (%d,%d) out of range [0,%d)", i, e[0], e[1], n)
			}
			if e[0] == e[1] {
				return 0, 0, fmt.Errorf("spec: edge %d is a self-loop at %d", i, e[0])
			}
		}
	case "path":
		if g.N < 1 {
			return 0, 0, fmt.Errorf("spec: path needs n >= 1, got %d", g.N)
		}
		n, m = g.N, g.N-1
	case "cycle":
		if g.N < 3 {
			return 0, 0, fmt.Errorf("spec: cycle needs n >= 3, got %d", g.N)
		}
		n, m = g.N, g.N
	case "grid":
		if g.Rows < 1 || g.Cols < 1 {
			return 0, 0, fmt.Errorf("spec: grid needs rows, cols >= 1, got %dx%d", g.Rows, g.Cols)
		}
		if g.Rows > MaxVertices || g.Cols > MaxVertices {
			return 0, 0, fmt.Errorf("spec: grid %dx%d too large", g.Rows, g.Cols)
		}
		// Exact, not an estimate: validateMRF checks per-edge activity
		// lists against this count.
		n, m = g.Rows*g.Cols, g.Rows*(g.Cols-1)+g.Cols*(g.Rows-1)
	case "torus":
		if g.Rows < 3 || g.Cols < 3 {
			return 0, 0, fmt.Errorf("spec: torus needs rows, cols >= 3, got %dx%d", g.Rows, g.Cols)
		}
		if g.Rows > MaxVertices || g.Cols > MaxVertices {
			return 0, 0, fmt.Errorf("spec: torus %dx%d too large", g.Rows, g.Cols)
		}
		n, m = g.Rows*g.Cols, 2*g.Rows*g.Cols
	case "complete":
		if g.N < 1 {
			return 0, 0, fmt.Errorf("spec: complete graph needs n >= 1, got %d", g.N)
		}
		if g.N > 4096 {
			return 0, 0, fmt.Errorf("spec: complete graph on %d vertices too large", g.N)
		}
		n, m = g.N, g.N*(g.N-1)/2
	case "star":
		if g.N < 1 {
			return 0, 0, fmt.Errorf("spec: star needs n >= 1, got %d", g.N)
		}
		n, m = g.N, g.N-1
	case "bipartite":
		if g.A < 1 || g.B < 1 {
			return 0, 0, fmt.Errorf("spec: bipartite needs a, b >= 1, got %d,%d", g.A, g.B)
		}
		if g.A > 4096 || g.B > 4096 {
			return 0, 0, fmt.Errorf("spec: bipartite %d,%d too large", g.A, g.B)
		}
		n, m = g.A+g.B, g.A*g.B
	case "tree":
		if g.Arity < 1 {
			return 0, 0, fmt.Errorf("spec: tree needs arity >= 1, got %d", g.Arity)
		}
		if g.Depth < 0 || g.Depth > 30 {
			return 0, 0, fmt.Errorf("spec: tree depth %d out of range [0,30]", g.Depth)
		}
		n = 1
		pow := 1
		for i := 0; i < g.Depth; i++ {
			pow *= g.Arity
			n += pow
			if n > MaxVertices {
				return 0, 0, fmt.Errorf("spec: tree arity %d depth %d too large", g.Arity, g.Depth)
			}
		}
		m = n - 1
	case "hypercube":
		if g.Dim < 0 || g.Dim > 20 {
			return 0, 0, fmt.Errorf("spec: hypercube dimension %d out of range [0,20]", g.Dim)
		}
		n, m = 1<<g.Dim, g.Dim*(1<<g.Dim)/2
	case "regular":
		if g.N < 1 || g.Degree < 0 {
			return 0, 0, fmt.Errorf("spec: regular graph needs n >= 1, degree >= 0")
		}
		if g.Degree >= g.N {
			return 0, 0, fmt.Errorf("spec: regular graph needs degree < n, got degree=%d n=%d", g.Degree, g.N)
		}
		if g.N*g.Degree%2 != 0 {
			return 0, 0, fmt.Errorf("spec: regular graph needs n*degree even, got %d*%d", g.N, g.Degree)
		}
		n, m = g.N, g.N*g.Degree/2
	case "gnp":
		if g.N < 1 {
			return 0, 0, fmt.Errorf("spec: gnp needs n >= 1, got %d", g.N)
		}
		if g.N > 4096 {
			return 0, 0, fmt.Errorf("spec: gnp on %d vertices too large", g.N)
		}
		if g.P < 0 || g.P > 1 || math.IsNaN(g.P) {
			return 0, 0, fmt.Errorf("spec: gnp needs p in [0,1], got %v", g.P)
		}
		n, m = g.N, g.N*(g.N-1)/2
	case "":
		return 0, 0, fmt.Errorf("spec: graph needs a family or an explicit edge list")
	default:
		return 0, 0, fmt.Errorf("spec: unknown graph family %q", fam)
	}
	if n > MaxVertices {
		return 0, 0, fmt.Errorf("spec: %d vertices exceeds the %d limit", n, MaxVertices)
	}
	if m > MaxEdges {
		return 0, 0, fmt.Errorf("spec: %d edges exceeds the %d limit", m, MaxEdges)
	}
	return n, m, nil
}

// fieldsByKind names the ModelSpec fields each kind reads. Validation
// rejects set fields outside the kind's row: a stray parameter would be
// silently ignored by Build yet still change the content hash, splitting
// one workload across several cache entries.
var fieldsByKind = map[string][]string{
	"coloring":       {"q", "shards", "parallel"},
	"listcoloring":   {"q", "lists", "shards", "parallel"},
	"hardcore":       {"lambda", "shards", "parallel"},
	"independentset": {"shards", "parallel"},
	"vertexcover":    {"shards", "parallel"},
	"ising":          {"beta", "field", "shards", "parallel"},
	"potts":          {"q", "beta", "shards", "parallel"},
	"mrf":            {"q", "edgeActivities", "vertexActivities", "shards", "parallel"},
	"csp":            {"q", "vertexActivities", "constraints", "init", "rounds", "shards", "parallel"},
}

// checkStray rejects model fields set to non-zero values that the declared
// kind does not read, naming the first in declaration order.
func (ms *ModelSpec) checkStray(allowed []string) error {
	fields := [...]setField{
		{"q", ms.Q != 0},
		{"lambda", ms.Lambda != 0},
		{"beta", ms.Beta != 0},
		{"field", ms.Field != 0},
		{"lists", len(ms.Lists) != 0},
		{"edgeActivities", len(ms.EdgeActivities) != 0},
		{"vertexActivities", len(ms.VertexActivities) != 0},
		{"constraints", len(ms.Constraints) != 0},
		{"init", len(ms.Init) != 0},
		{"rounds", ms.Rounds != 0},
		{"shards", ms.Shards != 0},
		{"parallel", ms.Parallel != 0},
	}
	if name := firstStray(fields[:], allowed); name != "" {
		return fmt.Errorf("spec: model kind %q does not take field %q", ms.Kind, name)
	}
	return nil
}

func (ms *ModelSpec) validate(n, m int, randomM bool) error {
	if allowed, ok := fieldsByKind[ms.Kind]; ok {
		if err := ms.checkStray(allowed); err != nil {
			return err
		}
	}
	if ms.Shards != 0 {
		if ms.Shards < 0 || ms.Shards > MaxShards {
			return fmt.Errorf("spec: shards must be in [0,%d], got %d", MaxShards, ms.Shards)
		}
		if ms.Shards > n {
			return fmt.Errorf("spec: %d shards for %d vertices (every shard must own a vertex)", ms.Shards, n)
		}
	}
	if ms.Parallel != 0 {
		if ms.Parallel < 0 || ms.Parallel > MaxParallel {
			return fmt.Errorf("spec: parallel must be in [0,%d], got %d", MaxParallel, ms.Parallel)
		}
		if ms.Shards > 1 && ms.Parallel > 1 {
			return fmt.Errorf("spec: shards and parallel are mutually exclusive serving defaults")
		}
	}
	switch ms.Kind {
	case "coloring":
		return ms.needQ(2)
	case "listcoloring":
		if err := ms.needQ(2); err != nil {
			return err
		}
		if len(ms.Lists) != n {
			return fmt.Errorf("spec: listcoloring has %d lists for %d vertices", len(ms.Lists), n)
		}
		for v, list := range ms.Lists {
			if len(list) == 0 {
				return fmt.Errorf("spec: listcoloring vertex %d has an empty list", v)
			}
			for _, c := range list {
				if c < 0 || c >= ms.Q {
					return fmt.Errorf("spec: listcoloring vertex %d color %d out of [0,%d)", v, c, ms.Q)
				}
			}
		}
		return nil
	case "hardcore":
		return checkParam("lambda", ms.Lambda)
	case "independentset", "vertexcover":
		return nil
	case "ising":
		if err := checkParam("beta", ms.Beta); err != nil {
			return err
		}
		return checkParam("field", ms.Field)
	case "potts":
		if err := ms.needQ(2); err != nil {
			return err
		}
		return checkParam("beta", ms.Beta)
	case "mrf":
		return ms.validateMRF(n, m, randomM)
	case "csp":
		return ms.validateCSP(n)
	case "":
		return fmt.Errorf("spec: model needs a kind")
	default:
		return fmt.Errorf("spec: unknown model kind %q", ms.Kind)
	}
}

func (ms *ModelSpec) needQ(min int) error {
	if ms.Q < min || ms.Q > MaxQ {
		return fmt.Errorf("spec: model %s needs q in [%d,%d], got %d", ms.Kind, min, MaxQ, ms.Q)
	}
	return nil
}

func checkParam(name string, v float64) error {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("spec: %s must be finite and non-negative, got %v", name, v)
	}
	return nil
}

func (ms *ModelSpec) validateMRF(n, m int, randomM bool) error {
	if err := ms.needQ(2); err != nil {
		return err
	}
	q := ms.Q
	if randomM && len(ms.EdgeActivities) != 1 {
		// The edge count of a random family isn't known until the graph is
		// sampled, so per-edge lists cannot be validated (or authored).
		return fmt.Errorf("spec: mrf on a random graph family needs exactly 1 shared edge activity, got %d", len(ms.EdgeActivities))
	}
	if len(ms.EdgeActivities) != 1 && len(ms.EdgeActivities) != m {
		return fmt.Errorf("spec: mrf needs 1 (shared) or %d edge activities, got %d", m, len(ms.EdgeActivities))
	}
	for i, a := range ms.EdgeActivities {
		if len(a) != q*q {
			return fmt.Errorf("spec: mrf edge activity %d has %d entries, want %d", i, len(a), q*q)
		}
		if j := badEntry(a); j >= 0 {
			return fmt.Errorf("spec: edge activity %d has invalid entry %v", i, a[j])
		}
	}
	if len(ms.VertexActivities) != 1 && len(ms.VertexActivities) != n {
		return fmt.Errorf("spec: mrf needs 1 (shared) or %d vertex activities, got %d", n, len(ms.VertexActivities))
	}
	return checkVertexActivities(ms.VertexActivities, q)
}

func (ms *ModelSpec) validateCSP(n int) error {
	if err := ms.needQ(2); err != nil {
		return err
	}
	q := ms.Q
	if len(ms.VertexActivities) != 0 && len(ms.VertexActivities) != 1 && len(ms.VertexActivities) != n {
		return fmt.Errorf("spec: csp needs 0, 1 (shared), or %d vertex activities, got %d", n, len(ms.VertexActivities))
	}
	if err := checkVertexActivities(ms.VertexActivities, q); err != nil {
		return err
	}
	if len(ms.Constraints) == 0 {
		return fmt.Errorf("spec: csp needs at least one constraint")
	}
	if len(ms.Constraints) > MaxConstraints {
		return fmt.Errorf("spec: %d constraints exceeds the %d limit", len(ms.Constraints), MaxConstraints)
	}
	tableEntries := 0
	for i := range ms.Constraints {
		c := &ms.Constraints[i]
		if len(c.Scope) == 0 || len(c.Scope) > MaxArity {
			return fmt.Errorf("spec: constraint %d arity %d out of [1,%d]", i, len(c.Scope), MaxArity)
		}
		for j, v := range c.Scope {
			if v < 0 || v >= n {
				return fmt.Errorf("spec: constraint %d scope vertex %d out of range [0,%d)", i, v, n)
			}
			if slices.Contains(c.Scope[:j], v) {
				return fmt.Errorf("spec: constraint %d has duplicate scope vertex %d", i, v)
			}
		}
		switch c.Kind {
		case "table":
			want := 1
			for range c.Scope {
				want *= q
				// Bounding each step keeps q^arity (up to 1024^8) from
				// overflowing before the comparison below.
				if want > MaxTableEntries {
					return fmt.Errorf("spec: constraint %d table q^%d exceeds %d entries", i, len(c.Scope), MaxTableEntries)
				}
			}
			if len(c.Table) != want {
				return fmt.Errorf("spec: constraint %d table has %d entries, want q^%d = %d", i, len(c.Table), len(c.Scope), want)
			}
			if j := badEntry(c.Table); j >= 0 {
				return fmt.Errorf("spec: constraint %d table has invalid entry %v", i, c.Table[j])
			}
			tableEntries += want
			if tableEntries > MaxTableEntries {
				return fmt.Errorf("spec: constraint tables exceed %d total entries", MaxTableEntries)
			}
		case "cover":
			if q != 2 {
				return fmt.Errorf("spec: constraint %d: cover requires q = 2, got %d", i, q)
			}
			if len(c.Table) != 0 {
				return fmt.Errorf("spec: constraint %d: cover takes no table", i)
			}
		case "notallequal":
			if len(c.Scope) < 2 {
				return fmt.Errorf("spec: constraint %d: notallequal needs arity >= 2", i)
			}
			if len(c.Table) != 0 {
				return fmt.Errorf("spec: constraint %d: notallequal takes no table", i)
			}
		default:
			return fmt.Errorf("spec: constraint %d has unknown kind %q", i, c.Kind)
		}
	}
	if len(ms.Init) != 0 {
		if len(ms.Init) != n {
			return fmt.Errorf("spec: csp init has length %d for %d vertices", len(ms.Init), n)
		}
		for v, x := range ms.Init {
			if x < 0 || x >= q {
				return fmt.Errorf("spec: csp init[%d] = %d out of [0,%d)", v, x, q)
			}
		}
	}
	if ms.Rounds < 0 {
		return fmt.Errorf("spec: csp rounds must be >= 0, got %d", ms.Rounds)
	}
	return nil
}

func checkVertexActivities(bs [][]float64, q int) error {
	for v, b := range bs {
		if len(b) != q {
			return fmt.Errorf("spec: vertex activity %d has length %d, want %d", v, len(b), q)
		}
		total := 0.0
		for _, x := range b {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return fmt.Errorf("spec: vertex activity %d has invalid entry %v", v, x)
			}
			total += x
		}
		if total <= 0 {
			return fmt.Errorf("spec: vertex activity %d has zero mass", v)
		}
	}
	return nil
}

// badEntry returns the index of t's first negative, NaN or infinite entry,
// or -1.
func badEntry(t []float64) int {
	for i, x := range t {
		if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}
