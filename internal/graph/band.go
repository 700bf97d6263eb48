package graph

import (
	"sync"
	"sync/atomic"
)

// Band is the view every MRF round kernel runs on: a set of owned vertices,
// the halo of their out-of-band neighbors, and the CSR rows of the owned
// vertices, all in local indexing. Algorithms 1 and 2 act per vertex over
// its radius-1 ball, so a round over a band needs nothing else.
//
// The centralized graph is the degenerate band (Graph.Band): identity IDs,
// every vertex owned, no halo. A shard of a partition plan is a band over
// its owned vertices plus halo-exchange maps. The kernels key all
// randomness by Global IDs and multiply marginals in the CSR slot order,
// which every band preserves from the global graph, so the same kernel
// gives the same draw on either.
type Band struct {
	// Global maps local vertex indices to global vertex IDs. [0, NOwned)
	// are the owned vertices and [NOwned, len(Global)) the halo copies,
	// each ascending.
	Global []int32
	// NOwned is the number of owned vertices.
	NOwned int

	// RowPtr/Nbr/EdgeSlot is the CSR adjacency of the owned rows: owned
	// vertex v's slots are [RowPtr[v], RowPtr[v+1]), listing neighbors as
	// local indices and incident edges as indices into Edges, in the
	// global graph's per-vertex slot order.
	RowPtr   []int32
	Nbr      []int32
	EdgeSlot []int32
	// Edges lists every edge with an owned endpoint once, ascending by
	// global ID: local endpoints in the edge's U/V orientation (the
	// LocalMetropolis filter is not symmetric in its endpoints) and the
	// global ID.
	Edges []Edge
}

// NLocal returns the number of local vertices (owned + halo).
func (b *Band) NLocal() int { return len(b.Global) }

// Band returns the graph's centralized band: Global is the identity, every
// vertex is owned, and the CSR arrays and edge list are the graph's own.
// It is built on first use and shared; callers must not modify it.
func (g *Graph) Band() *Band {
	g.bandOnce.Do(func() {
		g.band = &Band{
			Global:   Iota(g.n),
			NOwned:   g.n,
			RowPtr:   g.rowPtr,
			Nbr:      g.nbrFlat,
			EdgeSlot: g.incFlat,
			Edges:    g.edges,
		}
	})
	return g.band
}

// Iota returns [0, 1, ..., n-1] — the identity ID map of a degenerate band.
func Iota(n int) []int32 {
	ids := make([]int32, n)
	for i := range ids {
		ids[i] = int32(i)
	}
	return ids
}

// BetaLocalMax reports whether beta[v] strictly exceeds beta[u] for every u
// in nbr — the Luby-step membership test of Algorithm 1, lines 3–4. Every
// LubyGlauber kernel, over graphs and CSP hypergraphs alike, decides
// membership through this one function, so the strict-inequality tie-break
// cannot drift between runtimes.
func BetaLocalMax(beta []float64, v int, nbr []int32) bool {
	bv := beta[v]
	for _, u := range nbr {
		if beta[u] >= bv {
			return false
		}
	}
	return true
}

// parallelFor runs fn(w, lo, hi) over a balanced partition of [0, n) into
// contiguous blocks, one goroutine per block, and waits for all of them —
// the phase barrier of the vertex-parallel round kernels. w numbers the
// blocks from 0, so fn can index per-worker scratch by it.
func parallelFor(n, workers int, fn func(w, lo, hi int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w, lo := 0, 0; lo < n; w, lo = w+1, lo+chunk {
		hi := min(lo+chunk, n)
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			fn(w, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
}

// RoundObserver receives one callback per completed round. It is the
// nil-checked instrumentation seam shared by every engine tier: the
// centralized chains (chains.Sampler, csp.Chain), the SoA blocks, and the
// sharded cluster engines all invoke it with the same signature, and
// internal/obs provides implementations (trace recorder, metrics feeder)
// that satisfy it structurally without this package importing them.
//
// Contract: RoundDone must not allocate or block — it runs on the hot
// path of every instrumented round. shard is 0 for centralized chains;
// barrierNS is 0 where there is no barrier; flips < 0 means the kernel
// does not count accepted updates (the centralized baselines don't).
type RoundObserver interface {
	RoundDone(shard, round int, computeNS, barrierNS int64, flips int)
}

// Hooks are the run seams every chain state embeds — chains.Sampler,
// chains.SoABlock, csp.Chain and csp.SoABlock — so one driver can observe
// and cancel any of them.
type Hooks struct {
	// Obs, when non-nil, is called once per Step with the step's wall
	// time. The nil check is the only per-step cost when disabled, and
	// the centralized kernels don't count flips (reported as -1).
	Obs RoundObserver

	// Abort, when non-nil, is polled between steps by Run: once it
	// reads true the loop returns early. It is the cancellation seam
	// for context-aware draws — a canceled request stops burning rounds
	// at the next round boundary. The chain state is then mid-run and
	// must be Reset before reuse (which every pooled caller does
	// anyway). Nil costs one pointer check per round.
	Abort *atomic.Bool
}

// Span names the index range a kernel phase covers.
type Span uint8

const (
	Local Span = iota // every band vertex, owned and halo
	Owned             // the owned vertices
	Items             // the band's edges (constraints, on a CSP band)
)

// Phase is one barrier-separated step of a band round kernel K over one
// Span. It reads only state frozen before it started and writes only its
// own indices, which is what lets the vertex-parallel runtime split it
// into ranges. Run covers indices [lo, hi) as worker w and returns how
// many owned vertices it updated.
type Phase[K any] struct {
	Span Span
	Run  func(k K, w, lo, hi int) int
}

// RunRound runs a round's phases in order, each over [0, sizes[Span]):
// inline when workers <= 1, else over parallelFor ranges, whose return is
// the phase barrier, with flips (length >= workers) collecting per-worker
// counts. It returns the last phase's update count — the round's. Phase
// functions are method expressions, so the inline path allocates nothing.
func RunRound[K any](k K, phases []Phase[K], sizes [3]int, workers int, flips []int) int {
	total := 0
	for _, p := range phases {
		total = runPhase(k, p.Run, sizes[p.Span], workers, flips)
	}
	return total
}

func runPhase[K any](k K, run func(k K, w, lo, hi int) int, n, workers int, flips []int) int {
	if workers <= 1 {
		return run(k, 0, 0, n)
	}
	clear(flips)
	parallelFor(n, workers, func(w, lo, hi int) {
		flips[w] = run(k, w, lo, hi)
	})
	total := 0
	for _, f := range flips {
		total += f
	}
	return total
}
