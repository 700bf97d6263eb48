// Package cluster runs ONE Markov chain as k shard workers advancing in
// lockstep rounds — the in-process analogue of the paper's message-passing
// network, at shard rather than vertex granularity. Each worker owns a
// partition shard (internal/partition): a band over its owned vertices
// (graph.Band for MRFs, csp.Band for CSPs), the states of its owned
// vertices plus halo copies of their out-of-shard neighbors, and links to
// the neighboring shards. A round is
//
//	run the round kernel on the band  →  send boundary states  →  receive halo states,
//
// where the receive acts as the round barrier: no worker starts round r+1
// before every halo value it will read has arrived.
//
// The package holds no round math. The kernel is the same chains.Kernel
// (MRF) or csp.Kernel (CSP) the sequential and vertex-parallel runtimes
// run; this package only schedules it and refreshes the halo. One Engine
// serves both model families. The keystone invariant: a sharded draw with
// seed s is bit-identical to the centralized chain at the same seed,
// invariant to shard count and partition strategy. It holds because the
// kernels key every variate by GLOBAL vertex/edge/constraint IDs and round
// number — a vertex keeps its randomness no matter which shard owns it —
// and because shard bands preserve the global per-vertex slot order, so
// conditional-marginal products multiply in the same floating-point order
// as the centralized sweep. Cut edges and cut constraint scopes are
// evaluated redundantly on every incident shard; all read the same PRF
// coin and the same states, so they agree without communication (exactly
// the paper's shared-coin trick, §4).
//
// Only the paper's two LOCAL algorithms shard: LubyGlauber and
// LocalMetropolis. The inherently sequential baselines (Glauber,
// SystematicScan, ChromaticGlauber) have no O(log n)-round decomposition
// to exploit.
//
// Boundary states travel over an internal/transport.Transport, so the
// same engine runs all-local (channel transport, New/NewCSP) or as one
// worker process of a cross-process draw (TCP mesh behind
// NewWithTransport/NewCSPWithTransport).
//
// The round barrier has two implementations. Below TreeBarrierMinShards
// the workers pairwise exchange boundary frames over the transport. From
// it up, all-local engines switch to a publish model: each worker fills
// its double-buffered outgoing boundary buffers, passes one tree-reduce
// barrier (O(log k) rendezvous depth instead of O(deg) per worker), and
// reads its halo values straight from its neighbors' publish buffers. The
// barrier's happens-before chain makes the reads race-free, and the double
// buffering lets a worker run one round ahead without overwriting a buffer
// a slow neighbor is still reading — the same argument as the channel
// transport's capacity-2 invariant (see Engine.tr).
package cluster

import (
	"fmt"
	"sync"
	"time"

	"locsample/internal/chains"
	"locsample/internal/csp"
	"locsample/internal/mrf"
	"locsample/internal/partition"
	"locsample/internal/transport"
)

// Stats reports one sharded draw's runtime profile.
type Stats struct {
	// Shards is the worker count the draw ran with.
	Shards int `json:"shards"`
	// Rounds is the number of lockstep rounds executed.
	Rounds int `json:"rounds"`
	// BoundaryMessages counts boundary-state publishes — channel sends
	// below TreeBarrierMinShards, publish-buffer fills at or above it
	// (one per neighboring shard pair, per direction, per round either
	// way).
	BoundaryMessages int64 `json:"boundaryMessages"`
	// BoundaryValues counts vertex states exchanged across shard
	// boundaries over the whole draw.
	BoundaryValues int64 `json:"boundaryValues"`
	// BarrierWaitNS is the total time workers spent blocked at the
	// round barrier (receiving halo states), summed over workers.
	BarrierWaitNS int64 `json:"barrierWaitNs"`
	// WireFrames and WireBytes count boundary frames and bytes that
	// crossed a process boundary (cross-process draws only; each frame
	// is counted once, at its sender).
	WireFrames int64 `json:"wireFrames,omitempty"`
	WireBytes  int64 `json:"wireBytes,omitempty"`
}

// Add accumulates other into s (Shards and Rounds adopt other's values:
// they are per-draw constants, not sums).
func (s *Stats) Add(other Stats) {
	s.Shards = other.Shards
	s.Rounds = other.Rounds
	s.BoundaryMessages += other.BoundaryMessages
	s.BoundaryValues += other.BoundaryValues
	s.BarrierWaitNS += other.BarrierWaitNS
	s.WireFrames += other.WireFrames
	s.WireBytes += other.WireBytes
}

// kernel is one shard's round: chains.Kernel or csp.Kernel over the
// shard's band. Round advances the band-local state and returns the number
// of owned vertices updated.
type kernel interface {
	Round(x []int, seed uint64, round int) int
}

// shard is what the round loop needs of a plan shard besides its kernel:
// the band's global IDs and owned count, and the halo-exchange maps.
type shard struct {
	Global []int32
	NOwned int
	*partition.Halo
}

// worker is one shard's mutable run state. Buffers are allocated once in
// the constructor and reused across rounds and runs, so the steady-state
// loop allocates nothing.
type worker struct {
	sh   shard
	kern kernel
	x    []int // local vertex states (owned band + halo band)

	// sendBuf[j] holds two alternating outgoing buffers per neighbor j.
	// Round r sends buffer r&1; by the time round r+2 overwrites it, the
	// receiver has provably finished copying it (its round-r+1 message to
	// us happens-after its round-r receive).
	sendBuf [][2][]int

	msgs, vals, waitNS int64
}

// Engine executes sharded draws of one chain over a fixed (model, plan,
// algorithm) triple, MRF or CSP alike. An Engine is reusable across
// sequential Run calls but is NOT safe for concurrent Runs; callers that
// serve concurrent draws keep a pool of engines (the batch Sampler does).
type Engine struct {
	k, n int

	// ws[s] is non-nil exactly for the shards this engine hosts; local
	// lists them in ascending order. An engine built by New or NewCSP
	// hosts every shard; the WithTransport constructors host the subset a
	// worker process was assigned.
	ws    []*worker
	local []int
	// tr carries the boundary exchange. All-local engines use the
	// in-process channel transport (capacity-2 double-buffered links: a
	// sender can never block, because at most the previous and current
	// round's frames are outstanding — a worker cannot run two rounds
	// ahead of a neighbor it must hear from every round — so the lockstep
	// schedule is deadlock-free by construction). The WithTransport
	// constructors plug in any fabric: a TCP mesh for cross-process
	// draws, a fault-injecting wrapper in tests. Nil when the tree
	// barrier is active.
	tr transport.Transport
	// bar replaces the pairwise transport rendezvous as the round barrier
	// at K >= TreeBarrierMinShards when every shard is local; halo states
	// are then read straight from the neighbors' publish buffers after
	// the barrier.
	bar *treeBarrier

	// obs, when non-nil, receives one RoundDone per shard per round with
	// that round's compute/barrier split and accepted-update count. Set
	// via SetObserver before Run; the nil check is the only cost when
	// unset. Implementations must be safe for concurrent calls from all
	// shard goroutines and must not allocate (obs.RoundRecorder and
	// obs.RoundMetrics both qualify).
	obs chains.RoundObserver
}

// SetObserver installs (or, with nil, removes) the engine's per-round
// observer. Not safe to call while a Run is in flight.
func (e *Engine) SetObserver(o chains.RoundObserver) { e.obs = o }

// TreeBarrierMinShards is the shard count from which the engine swaps the
// pairwise channel exchange for the publish-buffer + tree-reduce barrier:
// below it the per-neighbor rendezvous count is tiny and the channel scheme
// wins on simplicity; at and above it the O(log k) barrier depth beats the
// O(deg) channel waits per worker.
const TreeBarrierMinShards = 8

// treeBarrier is a reusable k-party barrier over a binary arrival tree:
// worker i's children are 2i+1 and 2i+2. Arrivals reduce up the tree, the
// root releases down it, so one pass costs O(log k) rendezvous depth. Each
// channel sees exactly one send and one receive per round, strictly
// alternating (a child cannot arrive for round r+1 before its round-r
// release, which its parent sends only after consuming the round-r
// arrival), so the same barrier value is reusable every round and across
// Runs. The arrival chain up plus release chain down gives every worker's
// pre-barrier writes a happens-before edge to every other worker's
// post-barrier reads — the memory-safety backbone of the publish scheme.
type treeBarrier struct {
	arrive  []chan struct{}
	release []chan struct{}
}

func newTreeBarrier(k int) *treeBarrier {
	b := &treeBarrier{
		arrive:  make([]chan struct{}, k),
		release: make([]chan struct{}, k),
	}
	for i := 0; i < k; i++ {
		b.arrive[i] = make(chan struct{}, 1)
		b.release[i] = make(chan struct{}, 1)
	}
	return b
}

// wait blocks worker i until all k workers have arrived.
func (b *treeBarrier) wait(i int) {
	k := len(b.arrive)
	if c := 2*i + 1; c < k {
		<-b.arrive[c]
	}
	if c := 2*i + 2; c < k {
		<-b.arrive[c]
	}
	if i > 0 {
		b.arrive[i] <- struct{}{}
		<-b.release[i]
	}
	if c := 2*i + 1; c < k {
		b.release[c] <- struct{}{}
	}
	if c := 2*i + 2; c < k {
		b.release[c] <- struct{}{}
	}
}

// New compiles an engine hosting every shard of an MRF plan. Only
// LubyGlauber and LocalMetropolis are shardable.
func New(m *mrf.MRF, plan *partition.Plan, alg chains.Algorithm, dropRule3 bool) (*Engine, error) {
	return newMRF(m, plan, alg, dropRule3, nil, nil)
}

// NewWithTransport compiles an engine hosting only the given shards of an
// MRF plan, exchanging boundary states over tr — the worker-process side
// of a cross-process draw, or an all-local engine on a custom (e.g.
// fault-injecting) fabric. The tree-barrier fast path never applies:
// remote neighbors are only reachable through the transport.
func NewWithTransport(m *mrf.MRF, plan *partition.Plan, alg chains.Algorithm, dropRule3 bool, local []int, tr transport.Transport) (*Engine, error) {
	if tr == nil {
		return nil, errNoTransport
	}
	return newMRF(m, plan, alg, dropRule3, local, tr)
}

// NewCSP compiles an engine hosting every shard of a CSP plan, running
// the hypergraph LubyGlauber or LocalMetropolis chain.
func NewCSP(c *csp.CSP, plan *partition.CSPPlan, alg chains.Algorithm) (*Engine, error) {
	return newCSP(c, plan, alg, nil, nil)
}

// NewCSPWithTransport compiles an engine hosting only the given shards
// of a CSP plan over tr — the CSP counterpart of NewWithTransport.
func NewCSPWithTransport(c *csp.CSP, plan *partition.CSPPlan, alg chains.Algorithm, local []int, tr transport.Transport) (*Engine, error) {
	if tr == nil {
		return nil, errNoTransport
	}
	return newCSP(c, plan, alg, local, tr)
}

var errNoTransport = fmt.Errorf("cluster: a transport engine needs a transport")

func newMRF(m *mrf.MRF, plan *partition.Plan, alg chains.Algorithm, dropRule3 bool, local []int, tr transport.Transport) (*Engine, error) {
	return newEngine(&plan.Layout, alg, m.G.N(), local, tr, func(s int) (shard, kernel) {
		sh := plan.Shards[s]
		return shard{sh.Global, sh.NOwned, sh.Halo}, chains.NewKernel(m, &sh.Band, alg, chains.Options{DropRule3: dropRule3})
	})
}

func newCSP(c *csp.CSP, plan *partition.CSPPlan, alg chains.Algorithm, local []int, tr transport.Transport) (*Engine, error) {
	return newEngine(&plan.Layout, alg, c.N, local, tr, func(s int) (shard, kernel) {
		sh := plan.Shards[s]
		return shard{sh.Global, sh.NOwned, sh.Halo}, csp.NewKernel(c, &sh.Band, alg == chains.LocalMetropolis, 1)
	})
}

// newEngine validates the algorithm, the plan and the hosted shards, and
// allocates the hosted workers; build returns shard s's view and kernel.
// A nil tr means an all-local engine: it hosts every shard over the
// channel transport below TreeBarrierMinShards and the tree barrier from
// it up.
func newEngine(plan *partition.Layout, alg chains.Algorithm, modelN int, local []int, tr transport.Transport, build func(s int) (shard, kernel)) (*Engine, error) {
	if alg != chains.LubyGlauber && alg != chains.LocalMetropolis {
		return nil, fmt.Errorf("cluster: %v cannot be sharded (only LubyGlauber and LocalMetropolis decompose into local rounds)", alg)
	}
	if modelN != plan.N {
		return nil, fmt.Errorf("cluster: plan partitions %d vertices, model has %d", plan.N, modelN)
	}
	k := plan.K
	e := &Engine{k: k, n: plan.N, ws: make([]*worker, k), local: local, tr: tr}
	switch {
	case tr == nil:
		e.local = make([]int, k)
		for s := range e.local {
			e.local[s] = s
		}
		if k >= TreeBarrierMinShards {
			e.bar = newTreeBarrier(k)
		} else {
			e.tr = transport.NewChan(plan.NeighborLists(), 0)
		}
	case len(local) == 0:
		return nil, fmt.Errorf("cluster: a transport engine needs at least one local shard")
	default:
		seen := make(map[int]bool, len(local))
		for _, s := range local {
			if s < 0 || s >= k {
				return nil, fmt.Errorf("cluster: local shard %d out of range (plan has %d)", s, k)
			}
			if seen[s] {
				return nil, fmt.Errorf("cluster: local shard %d listed twice", s)
			}
			seen[s] = true
		}
	}
	for _, s := range e.local {
		sh, kern := build(s)
		w := &worker{sh: sh, kern: kern, x: make([]int, len(sh.Global)), sendBuf: make([][2][]int, k)}
		for _, j := range sh.Neighbors {
			w.sendBuf[j] = [2][]int{
				make([]int, len(sh.SendTo[j])),
				make([]int, len(sh.SendTo[j])),
			}
		}
		e.ws[s] = w
	}
	return e, nil
}

// Run advances one chain for the given number of rounds from init (read
// only) under the master seed, writing its hosted shards' owned states
// into out (length n; an all-local engine fills all of it). The
// trajectory is bit-identical to the centralized chain's: for an MRF,
// chains.NewSampler(m, init, seed, alg, opts).Run(rounds).
//
// A non-nil error means the draw did not complete: a shard worker hit a
// transport failure (or a sibling did, and the transport was closed to
// unblock everyone). The engine is poisoned afterwards — its transport
// is closed — so callers must discard it rather than Run again.
func (e *Engine) Run(init []int, seed uint64, rounds int, out []int) (Stats, error) {
	if len(init) != e.n || len(out) != e.n {
		panic("cluster: init/out length does not match the partitioned model")
	}
	for _, s := range e.local {
		w := e.ws[s]
		for l, gv := range w.sh.Global {
			w.x[l] = init[gv]
		}
		w.msgs, w.vals, w.waitNS = 0, 0, 0
	}
	var wg sync.WaitGroup
	var once sync.Once
	var firstErr error
	for _, s := range e.local {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			if err := e.runShard(s, seed, rounds, out); err != nil {
				once.Do(func() {
					firstErr = fmt.Errorf("cluster: shard %d: %w", s, err)
					// Poison the fabric so every sibling blocked in a
					// send or receive fails out instead of hanging.
					e.tr.Close()
				})
			}
		}(s)
	}
	wg.Wait()
	if firstErr != nil {
		return Stats{}, firstErr
	}
	st := Stats{Shards: e.k, Rounds: rounds}
	for _, s := range e.local {
		w := e.ws[s]
		st.BoundaryMessages += w.msgs
		st.BoundaryValues += w.vals
		st.BarrierWaitNS += w.waitNS
	}
	return st, nil
}

// Close releases the engine's transport (and with it any blocked shard
// workers). All-local tree-barrier engines have none; Close is then a
// no-op.
func (e *Engine) Close() error {
	if e.tr != nil {
		return e.tr.Close()
	}
	return nil
}

// runShard is one worker's lockstep loop: compute, publish boundary states,
// pass the round barrier, read halo states, repeat; then publish owned
// states into out. On the transport path the publish/barrier/read is the
// pairwise frame exchange; on the tree-barrier path the boundary buffers
// are filled in place, one tree-reduce barrier synchronizes the round, and
// halo values are copied straight out of the neighbors' publish buffers.
func (e *Engine) runShard(s int, seed uint64, rounds int, out []int) error {
	w := e.ws[s]
	sh := w.sh
	obs := e.obs
	for r := 0; r < rounds; r++ {
		var roundStart time.Time
		var waitBefore int64
		if obs != nil {
			roundStart = time.Now()
			waitBefore = w.waitNS
		}
		flips := w.kern.Round(w.x, seed, r)
		for _, j := range sh.Neighbors {
			buf := w.sendBuf[j][r&1]
			for t, l := range sh.SendTo[j] {
				buf[t] = w.x[l]
			}
			if e.bar == nil {
				if err := e.tr.Send(s, j, r, buf); err != nil {
					return fmt.Errorf("round %d: send to shard %d: %w", r, j, err)
				}
			}
			w.msgs++
			w.vals += int64(len(buf))
		}
		if e.bar != nil {
			t0 := time.Now()
			e.bar.wait(s)
			w.waitNS += time.Since(t0).Nanoseconds()
			for _, j := range sh.Neighbors {
				msg := e.ws[j].sendBuf[s][r&1]
				for t, l := range sh.RecvFrom[j] {
					w.x[l] = msg[t]
				}
			}
		} else {
			for _, j := range sh.Neighbors {
				t0 := time.Now()
				msg, err := e.tr.Recv(j, s, r, len(sh.RecvFrom[j]))
				w.waitNS += time.Since(t0).Nanoseconds()
				if err != nil {
					return fmt.Errorf("round %d: recv from shard %d: %w", r, j, err)
				}
				for t, l := range sh.RecvFrom[j] {
					w.x[l] = msg[t]
				}
			}
		}
		if obs != nil {
			// compute = round wall time minus barrier wait, so the two
			// spans tile the round exactly.
			barrierNS := w.waitNS - waitBefore
			obs.RoundDone(s, r, time.Since(roundStart).Nanoseconds()-barrierNS, barrierNS, flips)
		}
	}
	for l := 0; l < sh.NOwned; l++ {
		out[sh.Global[l]] = w.x[l]
	}
	return nil
}
