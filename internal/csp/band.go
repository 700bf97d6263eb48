package csp

// Band is the CSP counterpart of graph.Band, the view every CSP round
// kernel runs on: owned vertices, the halo of their hypergraph neighbors,
// the constraints touching an owned vertex, and the owned CSR rows, all in
// local indexing. The centralized CSP is the degenerate band (CSP.Band);
// a partition shard is a band plus halo-exchange maps. Every band keeps
// the global orders the kernels' floating-point products depend on.
type Band struct {
	// Global maps local vertex indices to global vertex IDs. [0, NOwned)
	// are the owned vertices and [NOwned, len(Global)) the halo copies,
	// each ascending.
	Global []int32
	// NOwned is the number of owned vertices.
	NOwned int

	// RowPtr/Nbr is the hypergraph-neighborhood CSR of the owned rows:
	// owned vertex v's Γ(v) occupies Nbr[RowPtr[v]:RowPtr[v+1]] as local
	// indices, in the global Γ order (ascending global ID).
	RowPtr []int32
	Nbr    []int32

	// ConID lists every constraint whose scope touches an owned vertex,
	// ascending by global constraint index; ConID[slot] keys the shared PRF
	// coin and the compiled table. ConPtr/ConScope hold the scopes as local
	// vertex indices, in the constraint's own scope order.
	ConID    []int32
	ConPtr   []int32
	ConScope []int32

	// VconPtr/Vcon is the owned-vertex → local-constraint-slot CSR, in
	// ascending global constraint order — the multiplication order of the
	// conditional marginal.
	VconPtr []int32
	Vcon    []int32
}

// NLocal returns the number of local vertices (owned + halo).
func (b *Band) NLocal() int { return len(b.Global) }

// Row returns owned vertex v's hypergraph neighborhood as local indices.
func (b *Band) Row(v int) []int32 { return b.Nbr[b.RowPtr[v]:b.RowPtr[v+1]] }

// Cons returns the constraint slots containing owned vertex v.
func (b *Band) Cons(v int) []int32 { return b.Vcon[b.VconPtr[v]:b.VconPtr[v+1]] }

// Scope returns constraint slot's scope as local indices.
func (b *Band) Scope(slot int) []int32 { return b.ConScope[b.ConPtr[slot]:b.ConPtr[slot+1]] }
