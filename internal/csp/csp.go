// Package csp implements weighted local constraint satisfaction problems
// (factor graphs) as defined in §2.2 of the paper: a collection C of
// constraints c = (f_c, S_c), where f_c : [q]^{S_c} → R≥0 is a non-negative
// constraint function with scope S_c ⊆ V, plus per-vertex activities. A
// configuration σ ∈ [q]^V has weight
//
//	w(σ) = Π_{c∈C} f_c(σ|_{S_c}) · Π_v b_v(σ_v),
//
// and the Gibbs distribution is proportional to w. Boolean-valued f_c give
// the uniform distribution over CSP solutions. MRFs are the special case of
// unary and binary symmetric constraints.
//
// The package also implements the hypergraph generalizations of both chains
// described in the paper's remarks:
//
//   - LubyGlauber over CSPs (§3 remark): the neighborhood is overridden to
//     Γ(v) = {u ≠ v : ∃c, {u,v} ⊆ S_c} and the Luby step selects a strongly
//     independent set of the constraint hypergraph.
//   - LocalMetropolis over CSPs (§4 remark): a k-ary constraint passes its
//     check with probability Π f̃_c(τ) over the 2^k − 1 mixings τ of the
//     proposals σ_{S_c} with the current values X_{S_c}, excluding X_{S_c}
//     itself.
//
// Compiled form. New already has to enumerate each constraint's full
// [q]^arity domain to compute the normalizing maximum; it keeps those values
// as a flat truth/weight table per DISTINCT constraint shape (families like
// DominatingSet and NotAllEqual build n closures that are all the same
// function — they share one table), so the hot paths — conditional
// marginals, configuration weights, and the LocalMetropolis check — are
// mixed-radix index arithmetic instead of closure calls. For small shapes
// the 2^k − 1 mixing products are additionally precomputed per
// (current, proposal) index pair. Constraints too large to tabulate
// (q^arity > tableMaxEntries) transparently fall back to the closure path;
// both paths produce bit-identical floats (the tables store exactly the
// values F returns). All indexes are flat int32 CSR arrays, held as the
// CSP's centralized Band.
//
// Each chain's round is written once, as a Kernel over a Band, and every
// runtime runs it (kernels.go).
package csp

import (
	"fmt"
	"math"
	"slices"
	"sync"

	"locsample/internal/graph"
	"locsample/internal/rng"
)

// Constraint is a weighted local constraint (f_c, S_c). F must be
// non-negative, and its maximum over [q]^|Scope| must be positive; Norm
// must be set to that maximum (New computes it).
type Constraint struct {
	// Scope lists the distinct vertices the constraint reads, in a fixed
	// order matching F's argument order.
	Scope []int32
	// F evaluates the constraint on values aligned with Scope.
	F func(vals []int) float64
	// Norm is max F, filled in by New; F/Norm is the normalized factor f̃_c.
	Norm float64
}

// Compilation limits. maxNormArity and the 1<<24 domain cap predate the
// compiled tables (Norm needs the full enumeration either way); the two
// table thresholds only steer how much of the enumeration is kept.
const (
	// maxNormArity bounds constraint arity (the domain enumeration and the
	// 2^k mixing loop are exponential in it).
	maxNormArity = 12
	// tableMaxEntries bounds the per-shape value tables New retains
	// (64k float64s = 512KiB per distinct shape); larger constraints use
	// the closure fallback.
	tableMaxEntries = 1 << 16
	// checkTableMaxSize bounds the domain size for which the full
	// (cur, prop) → LocalMetropolis pass-probability matrix is precomputed
	// (size² entries, so ≤ 4096 float64s).
	checkTableMaxSize = 64
)

// conTable is one distinct compiled constraint shape.
type conTable struct {
	arity int
	size  int // q^arity
	// vals[i] = F(decode(i)) with scope position 0 varying fastest — the
	// same digit order as the domain enumeration and the wire codec's
	// "table" constraints.
	vals []float64
	// norm[i] = vals[i]/Norm — the normalized factor f̃_c.
	norm []float64
	// check[cur*size+prop] is the LocalMetropolis pass probability
	// Π_{mixings τ ≠ cur} f̃(τ); nil when size > checkTableMaxSize.
	check []float64
}

// buildCheck fills t.check. The mask loop runs in exactly the order
// CheckProb's on-the-fly product does, so the stored probability is
// bit-identical to the sequential computation.
func (t *conTable) buildCheck(q int) {
	k := t.arity
	size := t.size
	t.check = make([]float64, size*size)
	curD := make([]int, k)
	propD := make([]int, k)
	stride := make([]int, k)
	s := 1
	for j := 0; j < k; j++ {
		stride[j] = s
		s *= q
	}
	for cur := 0; cur < size; cur++ {
		tc := cur
		for j := 0; j < k; j++ {
			curD[j] = tc % q
			tc /= q
		}
		for prop := 0; prop < size; prop++ {
			tp := prop
			for j := 0; j < k; j++ {
				propD[j] = tp % q
				tp /= q
			}
			p := 1.0
			for mask := 0; mask < (1<<k)-1; mask++ {
				idx := 0
				for j := 0; j < k; j++ {
					if mask&(1<<j) != 0 {
						idx += curD[j] * stride[j]
					} else {
						idx += propD[j] * stride[j]
					}
				}
				p *= t.norm[idx]
				if p == 0 {
					break
				}
			}
			t.check[cur*size+prop] = p
		}
	}
}

// CSP is a weighted local CSP over n vertices with spin domain [q].
type CSP struct {
	N int
	Q int
	// VertexB[v] is the vertex activity (length Q, non-negative, positive
	// total mass).
	VertexB [][]float64
	Cons    []Constraint

	// Compiled constraint shapes: conTab[i] indexes tabs, or is -1 for
	// constraints evaluated through their closure (q^arity too large).
	tabs   []*conTable
	conTab []int32

	// band is the centralized band: the flat scope, vertex → constraint
	// and hypergraph-neighborhood CSR indexes, over identity IDs.
	band Band

	// Deduplicated proposal distributions: propDist/propCum[propOf[v]] are
	// vertex v's normalized activity and its running sums (the
	// CategoricalCumU table).
	propDist [][]float64
	propCum  [][]float64
	propOf   []int32

	maxArity    int
	maxVconsDeg int // max constraints incident to one vertex

	// msPool recycles marginal scratch for the convenience entry points
	// (MarginalInto without caller-owned scratch); the round kernels carry
	// their own.
	msPool sync.Pool
}

// New validates and assembles a CSP. It evaluates each constraint over its
// full domain to compute the normalizing maximum — and keeps the enumerated
// values as a compiled lookup table per distinct shape — so constraint
// arities must stay small (q^arity is enumerated); the paper's local CSPs
// have constant-diameter scopes, hence constant arity on bounded-degree
// graphs.
func New(n, q int, vertexB [][]float64, cons []Constraint) (*CSP, error) {
	if n < 1 || q < 2 {
		return nil, fmt.Errorf("csp: need n >= 1 and q >= 2, got n=%d q=%d", n, q)
	}
	if len(vertexB) != n {
		return nil, fmt.Errorf("csp: %d vertex activities for %d vertices", len(vertexB), n)
	}
	for v, b := range vertexB {
		if len(b) != q {
			return nil, fmt.Errorf("csp: vertex %d activity has length %d, want %d", v, len(b), q)
		}
		total := 0.0
		for _, x := range b {
			if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
				return nil, fmt.Errorf("csp: vertex %d activity entry invalid: %v", v, x)
			}
			total += x
		}
		if total <= 0 {
			return nil, fmt.Errorf("csp: vertex %d activity has zero mass", v)
		}
	}
	c := &CSP{N: n, Q: q, VertexB: vertexB, Cons: make([]Constraint, len(cons))}
	copy(c.Cons, cons)
	c.conTab = make([]int32, len(c.Cons))
	pool := map[string]int32{}
	seen := make([]bool, n)
	for i := range c.Cons {
		con := &c.Cons[i]
		if len(con.Scope) == 0 {
			return nil, fmt.Errorf("csp: constraint %d has empty scope", i)
		}
		for _, v := range con.Scope {
			if v < 0 || int(v) >= n {
				return nil, fmt.Errorf("csp: constraint %d scope vertex %d out of range", i, v)
			}
			if seen[v] {
				return nil, fmt.Errorf("csp: constraint %d has duplicate scope vertex %d", i, v)
			}
			seen[v] = true
		}
		for _, v := range con.Scope {
			seen[v] = false
		}
		if len(con.Scope) > c.maxArity {
			c.maxArity = len(con.Scope)
		}
		norm, vals, err := enumerateDomain(con.F, len(con.Scope), q)
		if err != nil {
			return nil, fmt.Errorf("csp: constraint %d: %w", i, err)
		}
		if norm <= 0 {
			return nil, fmt.Errorf("csp: constraint %d is identically zero", i)
		}
		con.Norm = norm
		if vals == nil {
			c.conTab[i] = -1 // closure fallback
			continue
		}
		key := tableKey(vals)
		if ti, ok := pool[key]; ok {
			c.conTab[i] = ti
			continue
		}
		t := &conTable{arity: len(con.Scope), size: len(vals), vals: vals}
		t.norm = make([]float64, len(vals))
		for j, x := range vals {
			t.norm[j] = x / norm
		}
		if t.size <= checkTableMaxSize {
			t.buildCheck(q)
		}
		ti := int32(len(c.tabs))
		c.tabs = append(c.tabs, t)
		pool[key] = ti
		c.conTab[i] = ti
	}
	c.buildIndexes()
	c.buildProposals()
	return c, nil
}

// MustNew is New, panicking on error.
func MustNew(n, q int, vertexB [][]float64, cons []Constraint) *CSP {
	c, err := New(n, q, vertexB, cons)
	if err != nil {
		panic(err)
	}
	return c
}

// enumerateDomain sweeps f over [q]^arity, returning the maximum and — when
// the domain fits tableMaxEntries — the full value table (scope position 0
// varying fastest).
func enumerateDomain(f func([]int) float64, arity, q int) (norm float64, vals []float64, err error) {
	if arity > maxNormArity {
		return 0, nil, fmt.Errorf("arity %d too large to normalize", arity)
	}
	args := make([]int, arity)
	total := 1
	for i := 0; i < arity; i++ {
		total *= q
		if total > 1<<24 {
			return 0, nil, fmt.Errorf("domain q^%d too large to normalize", arity)
		}
	}
	if total <= tableMaxEntries {
		vals = make([]float64, total)
	}
	best := math.Inf(-1)
	for s := 0; s < total; s++ {
		t := s
		for i := 0; i < arity; i++ {
			args[i] = t % q
			t /= q
		}
		w := f(args)
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return 0, nil, fmt.Errorf("constraint value invalid: %v", w)
		}
		if w > best {
			best = w
		}
		if vals != nil {
			vals[s] = w
		}
	}
	return best, vals, nil
}

// tableKey builds the dedup key of a value table: its raw float64 bits.
// Two constraints share a compiled shape iff their enumerations agree
// exactly (same length implies same arity for a fixed q).
func tableKey(vals []float64) string {
	b := make([]byte, 8*len(vals))
	for i, x := range vals {
		u := math.Float64bits(x)
		for j := 0; j < 8; j++ {
			b[8*i+j] = byte(u >> (8 * j))
		}
	}
	return string(b)
}

// buildIndexes assembles the centralized band's flat CSR indexes: scopes,
// vertex→constraint incidence, and the hypergraph neighborhoods (sort +
// dedupe over the scope incidence — no per-vertex hash sets).
func (c *CSP) buildIndexes() {
	nCons := len(c.Cons)
	total := 0
	for i := range c.Cons {
		total += len(c.Cons[i].Scope)
	}
	b := &c.band
	b.Global = graph.Iota(c.N)
	b.NOwned = c.N
	b.ConID = graph.Iota(nCons)
	b.ConPtr = make([]int32, nCons+1)
	b.ConScope = make([]int32, 0, total)
	for i := range c.Cons {
		b.ConScope = append(b.ConScope, c.Cons[i].Scope...)
		b.ConPtr[i+1] = int32(len(b.ConScope))
	}

	b.VconPtr = make([]int32, c.N+1)
	for _, v := range b.ConScope {
		b.VconPtr[v+1]++
	}
	for v := 0; v < c.N; v++ {
		b.VconPtr[v+1] += b.VconPtr[v]
	}
	b.Vcon = make([]int32, total)
	for v := 0; v < c.N; v++ {
		if d := int(b.VconPtr[v+1] - b.VconPtr[v]); d > c.maxVconsDeg {
			c.maxVconsDeg = d
		}
	}
	cursor := append([]int32(nil), b.VconPtr[:c.N]...)
	for i := range c.Cons {
		for _, v := range c.Cons[i].Scope {
			b.Vcon[cursor[v]] = int32(i)
			cursor[v]++
		}
	}

	b.RowPtr = make([]int32, c.N+1)
	nbr := make([]int32, 0, total)
	var buf []int32
	for v := 0; v < c.N; v++ {
		buf = buf[:0]
		for _, ci := range b.Cons(v) {
			for _, u := range b.Scope(int(ci)) {
				if u != int32(v) {
					buf = append(buf, u)
				}
			}
		}
		slices.Sort(buf)
		prev := int32(-1)
		for _, u := range buf {
			if u != prev {
				nbr = append(nbr, u)
				prev = u
			}
		}
		b.RowPtr[v+1] = int32(len(nbr))
	}
	b.Nbr = nbr
}

// buildProposals deduplicates the normalized per-vertex proposal
// distributions (vertices routinely share one activity row) and precomputes
// their cumulative tables for CategoricalCumU.
func (c *CSP) buildProposals() {
	c.propOf = make([]int32, c.N)
	byPtr := map[*float64]int32{}
	byContent := map[string]int32{}
	for v, b := range c.VertexB {
		p0 := &b[0]
		if idx, ok := byPtr[p0]; ok {
			c.propOf[v] = idx
			continue
		}
		dist := make([]float64, c.Q)
		c.ProposalDistInto(v, dist)
		key := tableKey(dist)
		if idx, ok := byContent[key]; ok {
			byPtr[p0] = idx
			c.propOf[v] = idx
			continue
		}
		cum := make([]float64, c.Q)
		rng.CumSumInto(dist, cum)
		idx := int32(len(c.propDist))
		c.propDist = append(c.propDist, dist)
		c.propCum = append(c.propCum, cum)
		byPtr[p0] = idx
		byContent[key] = idx
		c.propOf[v] = idx
	}
}

// scope returns constraint ci's scope as a slice of the flat array.
func (c *CSP) scope(ci int32) []int32 { return c.band.Scope(int(ci)) }

// Band returns the CSP's centralized band: identity IDs, every vertex
// owned, every constraint local. Callers must not modify it.
func (c *CSP) Band() *Band { return &c.band }

// Neighborhood returns the hypergraph neighborhood Γ(v) (§3 remark). The
// caller must not modify it.
func (c *CSP) Neighborhood(v int) []int32 { return c.band.Row(v) }

// ConstraintsOf returns the indices of the constraints containing v,
// ascending. The caller must not modify it.
func (c *CSP) ConstraintsOf(v int) []int32 { return c.band.Cons(v) }

// TableOf returns constraint ci's compiled value table — entry i holds
// F(decode(i)) with scope position 0 varying fastest, the same digit
// order as the wire codec's "table" constraints — or nil when the
// constraint's domain was too large to tabulate and it is evaluated
// through its closure. The caller must not modify the table; tables may
// be shared between identical constraints.
func (c *CSP) TableOf(ci int) []float64 {
	if ti := c.conTab[ci]; ti >= 0 {
		return c.tabs[ti].vals
	}
	return nil
}

// evalOn evaluates constraint ci on configuration x through the index map
// scope: scope[j] is the position in x holding the constraint's j-th scope
// vertex — a band's local scope, global on the centralized band. buf
// (len ≥ arity) is scratch for the closure fallback; nil allocates when
// needed.
func (c *CSP) evalOn(ci int, x []int, scope []int32, buf []int) float64 {
	if ti := c.conTab[ci]; ti >= 0 {
		t := c.tabs[ti]
		idx, stride := 0, 1
		for _, p := range scope {
			idx += x[p] * stride
			stride *= c.Q
		}
		return t.vals[idx]
	}
	if buf == nil {
		buf = make([]int, len(scope))
	}
	vals := buf[:len(scope)]
	for j, p := range scope {
		vals[j] = x[p]
	}
	return c.Cons[ci].F(vals)
}

// Weight returns w(σ). The product underflows to 0 on large instances, so
// test feasibility with Feasible, not Weight(σ) > 0.
func (c *CSP) Weight(sigma []int) float64 {
	w := 1.0
	for i := range c.Cons {
		w *= c.evalOn(i, sigma, c.scope(int32(i)), nil)
		if w == 0 {
			return 0
		}
	}
	for v := 0; v < c.N; v++ {
		w *= c.VertexB[v][sigma[v]]
		if w == 0 {
			return 0
		}
	}
	return w
}

// Feasible reports whether w(σ) > 0, i.e. whether every constraint and
// vertex factor is positive. It tests the factors one at a time instead of
// taking their product, which underflows to 0 on large instances even when
// every factor is positive.
func (c *CSP) Feasible(sigma []int) bool {
	for i := range c.Cons {
		if c.evalOn(i, sigma, c.scope(int32(i)), nil) == 0 {
			return false
		}
	}
	for v, b := range c.VertexB {
		if b[sigma[v]] == 0 {
			return false
		}
	}
	return true
}

// margScratch holds the per-call working arrays of marginalInto: the
// hoisted per-constraint table pointers, base indexes, and spin strides,
// plus the closure-fallback gather buffer.
type margScratch struct {
	tabs   []*conTable
	base   []int
	stride []int
	eval   []int
}

func newMargScratch(c *CSP) margScratch {
	return margScratch{
		tabs:   make([]*conTable, c.maxVconsDeg),
		base:   make([]int, c.maxVconsDeg),
		stride: make([]int, c.maxVconsDeg),
		eval:   make([]int, 3*c.maxArity),
	}
}

// MarginalInto fills out with the conditional marginal of v given the rest
// of sigma: µ_v(a | σ_{V∖v}) ∝ b_v(a) · Π_{c ∋ v} f_c(σ with σ_v = a).
// Returns false when the total mass is zero. sigma is restored before
// returning. The round kernels route reusable scratch through marginalInto
// and allocate nothing; this convenience form borrows pooled scratch and is
// safe for concurrent use.
func (c *CSP) MarginalInto(v int, sigma []int, out []float64) bool {
	ms, _ := c.msPool.Get().(*margScratch)
	if ms == nil {
		m := newMargScratch(c)
		ms = &m
	}
	ok := c.marginalInto(&c.band, v, sigma, out, ms)
	c.msPool.Put(ms)
	return ok
}

// marginalInto is MarginalInto for owned vertex v of band b over the
// band-local configuration x — the one CSP marginal kernel, run by every
// runtime. Its incident constraints multiply in ascending global
// constraint order (every band's Vcon rows keep it) through the compiled
// tables, so the floats are the same on every band.
func (c *CSP) marginalInto(b *Band, v int, x []int, out []float64, ms *margScratch) bool {
	saved := x[v]
	slots := b.Cons(v)
	// Hoist each tabulated constraint's mixed-radix index out of the spin
	// loop: with base the index over x restricted to the other scope
	// members and vstride the stride of v's scope position, the table cell
	// for spin a is base + a·vstride — the exact index the full walk would
	// compute, so the looked-up factors (and the products below, taken in
	// the same ascending-constraint order) are bit-identical.
	for i, slot := range slots {
		ti := c.conTab[b.ConID[slot]]
		if ti < 0 {
			ms.tabs[i] = nil // closure fallback, evaluated per spin below
			continue
		}
		t := c.tabs[ti]
		idx, vstride, stride := 0, 0, 1
		for _, u := range b.Scope(int(slot)) {
			if int(u) == v {
				vstride = stride
			} else {
				idx += x[u] * stride
			}
			stride *= c.Q
		}
		ms.tabs[i] = t
		ms.base[i] = idx
		ms.stride[i] = vstride
	}
	vb := c.VertexB[b.Global[v]]
	total := 0.0
	for a := 0; a < c.Q; a++ {
		w := vb[a]
		if w > 0 {
			x[v] = a
			for i, slot := range slots {
				if t := ms.tabs[i]; t != nil {
					w *= t.vals[ms.base[i]+a*ms.stride[i]]
				} else {
					w *= c.evalOn(int(b.ConID[slot]), x, b.Scope(int(slot)), ms.eval)
				}
				if w == 0 {
					break
				}
			}
		}
		out[a] = w
		total += w
	}
	x[v] = saved
	if total <= 0 {
		return false
	}
	inv := 1 / total
	for a := 0; a < c.Q; a++ {
		out[a] *= inv
	}
	return true
}

// CheckProb returns the LocalMetropolis pass probability of constraint ci
// (§4 remark): the product of the normalized factors f̃_c(τ) over the
// 2^k − 1 vectors τ obtained by replacing each subset of scope positions of
// the proposal vector prop with the current vector cur — every mixing except
// cur itself.
func (c *CSP) CheckProb(ci int, cur, prop []int) float64 {
	return c.checkProbOn(ci, cur, prop, c.scope(int32(ci)), nil)
}

// checkProbOn is CheckProb through an explicit scope index map (see evalOn).
// For compiled shapes it is pure index arithmetic — and a single lookup when
// the (cur, prop) product matrix was precomputed. buf (len ≥ 3·arity) is
// scratch for the closure fallback; nil allocates when needed.
func (c *CSP) checkProbOn(ci int, cur, prop []int, scope []int32, buf []int) float64 {
	k := len(scope)
	if ti := c.conTab[ci]; ti >= 0 {
		t := c.tabs[ti]
		var delta [maxNormArity]int
		curIdx, propIdx, stride := 0, 0, 1
		for j, p := range scope {
			cd, pd := cur[p], prop[p]
			curIdx += cd * stride
			propIdx += pd * stride
			delta[j] = (cd - pd) * stride
			stride *= c.Q
		}
		if t.check != nil {
			return t.check[curIdx*t.size+propIdx]
		}
		p := 1.0
		for mask := 0; mask < (1<<k)-1; mask++ {
			idx := propIdx
			for j := 0; j < k; j++ {
				if mask&(1<<j) != 0 {
					idx += delta[j]
				}
			}
			p *= t.norm[idx]
			if p == 0 {
				return 0
			}
		}
		return p
	}
	// Closure fallback: the seed-era mixing loop, verbatim arithmetic.
	con := &c.Cons[ci]
	if buf == nil {
		buf = make([]int, 3*k)
	}
	curV := buf[:k]
	propV := buf[k : 2*k]
	tau := buf[2*k : 3*k]
	for j, p := range scope {
		curV[j] = cur[p]
		propV[j] = prop[p]
	}
	p := 1.0
	// mask bit i set means position i takes the current value; the all-ones
	// mask is the excluded X_{S_c}.
	for mask := 0; mask < (1<<k)-1; mask++ {
		for i := 0; i < k; i++ {
			if mask&(1<<i) != 0 {
				tau[i] = curV[i]
			} else {
				tau[i] = propV[i]
			}
		}
		p *= con.F(tau) / con.Norm
		if p == 0 {
			return 0
		}
	}
	return p
}

// ProposalDistInto fills out with the normalized vertex activity of v.
func (c *CSP) ProposalDistInto(v int, out []float64) {
	total := 0.0
	for a := 0; a < c.Q; a++ {
		out[a] = c.VertexB[v][a]
		total += out[a]
	}
	inv := 1 / total
	for a := 0; a < c.Q; a++ {
		out[a] *= inv
	}
}

// --- Models ------------------------------------------------------------

// DominatingSet returns the uniform distribution over dominating sets of g
// (spin 1 = in the set): one "cover" constraint per inclusive neighborhood
// Γ⁺(v) requiring at least one chosen vertex (§2.2, "Dominating sets").
func DominatingSet(g *graph.Graph) *CSP {
	return WeightedDominatingSet(g, 1)
}

// WeightedDominatingSet is DominatingSet with weight λ^|S| on set S.
func WeightedDominatingSet(g *graph.Graph, lambda float64) *CSP {
	n := g.N()
	cons := make([]Constraint, 0, n)
	for v := 0; v < n; v++ {
		scope := make([]int32, 0, g.Deg(v)+1)
		scope = append(scope, int32(v))
		scope = append(scope, g.SimpleNeighbors(v)...)
		cons = append(cons, Constraint{
			Scope: scope,
			F: func(vals []int) float64 {
				for _, x := range vals {
					if x == 1 {
						return 1
					}
				}
				return 0
			},
		})
	}
	b := make([][]float64, n)
	vec := []float64{1, lambda}
	for i := range b {
		b[i] = vec
	}
	return MustNew(n, 2, b, cons)
}

// NotAllEqual returns the uniform distribution over [q]^V configurations in
// which no listed scope is monochromatic (hypergraph coloring / NAE-SAT
// style constraints).
func NotAllEqual(n, q int, scopes [][]int32) *CSP {
	cons := make([]Constraint, 0, len(scopes))
	for _, sc := range scopes {
		cons = append(cons, Constraint{
			Scope: sc,
			F: func(vals []int) float64 {
				for _, x := range vals[1:] {
					if x != vals[0] {
						return 1
					}
				}
				return 0
			},
		})
	}
	b := make([][]float64, n)
	ones := make([]float64, q)
	for i := range ones {
		ones[i] = 1
	}
	for i := range b {
		b[i] = ones
	}
	return MustNew(n, q, b, cons)
}

// FromMRF converts an MRF-style model into an equivalent CSP: one binary
// constraint per edge. Both chains on the CSP must then agree with their MRF
// counterparts — the cross-validation used in the E10 experiments.
func FromMRF(g *graph.Graph, q int, edgeF func(edgeID int, a, b int) float64, vertexB [][]float64) *CSP {
	cons := make([]Constraint, 0, g.M())
	for id, e := range g.Edges() {
		id := id
		cons = append(cons, Constraint{
			Scope: []int32{e.U, e.V},
			F: func(vals []int) float64 {
				return edgeF(id, vals[0], vals[1])
			},
		})
	}
	return MustNew(g.N(), q, vertexB, cons)
}
