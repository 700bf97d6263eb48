// CSP plans: the constraint-scope generalization of the graph partition.
// The halo band of a shard is the hypergraph neighborhood of its owned
// vertices — every vertex sharing a constraint with an owned vertex — which
// is exactly the radius-1 state a shard needs to evaluate its owned
// vertices' conditional marginals and every constraint containing them.
// Constraints are replicated onto every shard whose owned set their scope
// intersects (cut-scope checks are evaluated redundantly from shared PRF
// coins, like cut edges in the MRF runtime); for accounting purposes a
// constraint is OWNED by the shard owning its minimum scope vertex, so
// CutConstraints counts each spanning scope once.
package partition

import "locsample/internal/csp"

// CSPShard is one worker's slice of a CSP: a csp.Band over the vertices it
// owns (local indices [0, NOwned) owned ascending, then the halo
// ascending) plus the maps that refresh the halo every round.
type CSPShard struct {
	// ID is the shard's index in the plan.
	ID int
	csp.Band
	*Halo
}

// CSPPlan is a compiled partition of a CSP's vertices into k shards.
type CSPPlan struct {
	Layout
	// Shards are the per-worker slices.
	Shards []*CSPShard
	// CutConstraints counts constraints whose scope spans several owners
	// (each is checked redundantly on every incident shard).
	CutConstraints int
}

// BuildCSP compiles a k-way partition of CSP c over its constraint
// hypergraph. It requires 1 <= k <= c.N, so every shard owns at least one
// vertex. The result is a pure function of the arguments; like the MRF
// planner, which partition a chain runs on never affects its output, only
// its boundary traffic.
func BuildCSP(c *csp.CSP, k int, strat Strategy, seed uint64) (*CSPPlan, error) {
	p := &CSPPlan{}
	globals, nOwned, err := p.Layout.build(c.N, k, strat, seed, func(v int32) []int32 { return c.Neighborhood(int(v)) })
	if err != nil {
		return nil, err
	}
	p.Shards = make([]*CSPShard, k)
	// Each shard's constraints, ascending: every constraint whose scope
	// touches an owned vertex (all its scope members are then local — in
	// Γ(owned) ∪ owned).
	conIDs := make([][]int32, k)
	last := make([]int32, k) // last constraint appended per shard, +1
	for ci := range c.Cons {
		owners := 0
		for _, u := range c.Cons[ci].Scope {
			if s := p.Owner[u]; last[s] != int32(ci)+1 {
				last[s] = int32(ci) + 1
				conIDs[s] = append(conIDs[s], int32(ci))
				owners++
			}
		}
		if owners > 1 {
			p.CutConstraints++
		}
	}
	localOf := make([]int32, c.N)
	conSlot := make([]int32, len(c.Cons))
	for s := range p.Shards {
		p.Shards[s] = &CSPShard{ID: s, Band: cspBandOf(c, globals[s], nOwned[s], conIDs[s], localOf, conSlot), Halo: &p.halos[s]}
	}
	return p, nil
}

// cspBandOf builds c's band over the local vertex list global (owned
// first) and the constraints cons (ascending). localOf (length n) and
// conSlot (one entry per constraint) are scratch shared across shards:
// every entry read is written for the current band first.
func cspBandOf(c *csp.CSP, global []int32, nOwned int, cons, localOf, conSlot []int32) csp.Band {
	b := csp.Band{Global: global, NOwned: nOwned, ConID: cons}
	owned := global[:nOwned]
	for l, v := range global {
		localOf[v] = int32(l)
	}

	// Hypergraph-neighborhood CSR over owned rows.
	b.RowPtr = make([]int32, nOwned+1)
	for i, v := range owned {
		b.RowPtr[i+1] = b.RowPtr[i] + int32(len(c.Neighborhood(int(v))))
	}
	b.Nbr = make([]int32, 0, b.RowPtr[nOwned])
	for _, v := range owned {
		for _, u := range c.Neighborhood(int(v)) {
			b.Nbr = append(b.Nbr, localOf[u])
		}
	}

	b.ConPtr = make([]int32, len(b.ConID)+1)
	for slot, ci := range b.ConID {
		conSlot[ci] = int32(slot)
		b.ConPtr[slot+1] = b.ConPtr[slot] + int32(len(c.Cons[ci].Scope))
	}
	b.ConScope = make([]int32, 0, b.ConPtr[len(b.ConID)])
	for _, ci := range b.ConID {
		for _, u := range c.Cons[ci].Scope {
			b.ConScope = append(b.ConScope, localOf[u])
		}
	}

	// Owned-vertex incidence, ascending global constraint order (the
	// global ConstraintsOf order, mapped through the slot table).
	b.VconPtr = make([]int32, nOwned+1)
	for i, v := range owned {
		b.VconPtr[i+1] = b.VconPtr[i] + int32(len(c.ConstraintsOf(int(v))))
	}
	b.Vcon = make([]int32, 0, b.VconPtr[nOwned])
	for _, v := range owned {
		for _, ci := range c.ConstraintsOf(int(v)) {
			b.Vcon = append(b.Vcon, conSlot[ci])
		}
	}
	return b
}
