package main

import (
	"bytes"
	"fmt"
	"strings"

	"locsample"
)

// model is one served spec together with the checks its samples must pass.
type model struct {
	label string
	spec  []byte
	check *modelCheck
	local *localModel
	id    string // assigned at registration
}

func newModel(label string, spec []byte, check *modelCheck) *model {
	return &model{label: label, spec: spec, check: check, local: &localModel{spec: spec}}
}

// sampleReq is the body of POST /v1/models/{id}/sample as the benchmark
// sends it. Rounds is "auto" or empty (the model's budget).
type sampleReq struct {
	K        int    `json:"k"`
	Seed     uint64 `json:"seed"`
	Rounds   string `json:"rounds,omitempty"`
	Shards   int    `json:"shards,omitempty"`
	Parallel int    `json:"parallel,omitempty"`
}

// Runtime tags split client latencies by the runtime a draw ran on.
const (
	tagSeq      = "seq"
	tagParallel = "parallel"
	tagCoord    = "coord"
)

// drawPlan is one kind of draw: a model, the request options (the seed is
// filled per op) and the runtime tag.
type drawPlan struct {
	m   *model
	req sampleReq
	tag string
}

// opPlan is one operation of the closed loop: a draw, preceded in the
// sweep by registering the draw's fresh model.
type opPlan struct {
	drawPlan
	register bool
}

// workload is one traffic mix against one lserved boot.
type workload struct {
	name    string
	workers int      // lsharded workers behind lserved
	fixed   []*model // registered during set-up
	warm    []drawPlan
	// plan returns op i of client c; seeds are derived from the run seed.
	plan func(c, i int) opPlan
	// opBudget caps the ops of one timed phase (0: time-bounded only).
	opBudget int
	// probeMRF and probeCSP are the models the traced run's in-process
	// layer probes use, drawn with k chains.
	probeMRF, probeCSP *model
	k                  int
}

// mix64 is SplitMix64's finalizer: every seed and choice the benchmark
// makes is a pure function of the run seed and the op coordinates.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func opHash(seed uint64, c, i, salt int) uint64 {
	return mix64(mix64(mix64(seed^uint64(salt)<<56)^uint64(c)) ^ uint64(i))
}

func coloringSpec(rows, cols, q int, name string) []byte {
	return []byte(fmt.Sprintf(`{"version":"locsample/v1","name":%q,"graph":{"family":"grid","rows":%d,"cols":%d},"model":{"kind":"coloring","q":%d}}`,
		name, rows, cols, q))
}

func hardcoreSpec(rows, cols int, lambda float64, name string) []byte {
	return []byte(fmt.Sprintf(`{"version":"locsample/v1","name":%q,"graph":{"family":"grid","rows":%d,"cols":%d},"model":{"kind":"hardcore","lambda":%g}}`,
		name, rows, cols, lambda))
}

// domsetSpec is the uniform dominating-set CSP on a grid: one cover
// constraint per closed neighborhood.
func domsetSpec(rows, cols, rounds int, name string) []byte {
	var b strings.Builder
	fmt.Fprintf(&b, `{"version":"locsample/v1","name":%q,"graph":{"family":"grid","rows":%d,"cols":%d},"model":{"kind":"csp","q":2,"constraints":[`, name, rows, cols)
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if r+c > 0 {
				b.WriteByte(',')
			}
			v := r*cols + c
			fmt.Fprintf(&b, `{"kind":"cover","scope":[%d`, v)
			if r > 0 {
				fmt.Fprintf(&b, ",%d", v-cols)
			}
			if c > 0 {
				fmt.Fprintf(&b, ",%d", v-1)
			}
			if c+1 < cols {
				fmt.Fprintf(&b, ",%d", v+1)
			}
			if r+1 < rows {
				fmt.Fprintf(&b, ",%d", v+cols)
			}
			b.WriteString("]}")
		}
	}
	fmt.Fprintf(&b, `],"rounds":%d}}`, rounds)
	return []byte(b.String())
}

// weightedDomsetSpec exports the λ-weighted dominating-set CSP through
// NewSpecFromCSP: an explicit edge list and one table constraint per
// closed neighborhood, pinned to the all-ones start. withInit=false drops
// the pinned start so the server must derive one.
func weightedDomsetSpec(rows, cols int, lambda float64, rounds int, name string, withInit bool) ([]byte, error) {
	g := locsample.GridGraph(rows, cols)
	init := make([]int, g.N())
	for v := range init {
		init[v] = 1
	}
	s, err := locsample.NewSpecFromCSP(g, locsample.NewWeightedDominatingSet(g, lambda), init, rounds, name)
	if err != nil {
		return nil, err
	}
	if !withInit {
		s.Model.Init = nil
	}
	return locsample.EncodeSpec(s)
}

func coloringCheck(rows, cols, q int) *modelCheck {
	return &modelCheck{kind: "coloring", n: rows * cols, q: q, edges: gridEdges(rows, cols)}
}

func domsetCheck(rows, cols int) *modelCheck {
	return &modelCheck{kind: "domset", n: rows * cols, q: 2, edges: gridEdges(rows, cols)}
}

const domsetRounds = 32

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"small-k1", "large-batch", "large-single", "sweep"}

func newWorkload(name string, seed uint64) (*workload, error) {
	switch name {
	case "small-k1":
		return alternating(name, seed, 32, 32, 1), nil
	case "large-batch":
		// An 80² dominating set costs about what a 64² coloring does at
		// k=16, so the latency distribution has one mode, not two.
		return alternating(name, seed, 64, 80, 16), nil
	case "large-single":
		return largeSingle(seed), nil
	case "sweep":
		return sweep(seed)
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// alternating draws k chains per op, alternating a q=16 grid coloring and
// a grid dominating set, on the sequential runtime.
func alternating(name string, seed uint64, colSide, domSide, k int) *workload {
	col := newModel("coloring", coloringSpec(colSide, colSide, 16, name+"-coloring"), coloringCheck(colSide, colSide, 16))
	dom := newModel("domset", domsetSpec(domSide, domSide, domsetRounds, name+"-domset"), domsetCheck(domSide, domSide))
	ms := []*model{col, dom}
	w := &workload{name: name, fixed: ms, probeMRF: col, probeCSP: dom, k: k}
	for _, m := range ms {
		w.warm = append(w.warm, drawPlan{m: m, req: sampleReq{K: k}, tag: tagSeq})
	}
	w.plan = func(c, i int) opPlan {
		return opPlan{drawPlan: drawPlan{m: ms[(c+i)%2], req: sampleReq{K: k, Seed: opHash(seed, c, i, 1)}, tag: tagSeq}}
	}
	return w
}

// largeSingle rotates single-chain draws on a 256² coloring and a 128²
// dominating set over three runtimes, the coloring twice as often: a
// coloring draw costs about eight dominating-set draws, and with an even
// mix the median would sit on the gap between the two. lserved runs with
// two lsharded workers, so a draw naming no shard count would default to
// one shard per worker: sequential draws must send shards:1.
func largeSingle(seed uint64) *workload {
	col := newModel("coloring", coloringSpec(256, 256, 16, "large-single-coloring"), coloringCheck(256, 256, 16))
	dom := newModel("domset", domsetSpec(128, 128, domsetRounds, "large-single-domset"), domsetCheck(128, 128))
	var warm []drawPlan
	for _, m := range []*model{col, dom} {
		warm = append(warm,
			drawPlan{m: m, req: sampleReq{K: 1, Shards: 1}, tag: tagSeq},
			drawPlan{m: m, req: sampleReq{K: 1, Parallel: 2}, tag: tagParallel},
			drawPlan{m: m, req: sampleReq{K: 1, Shards: 2}, tag: tagCoord})
	}
	// A fixed interleaving: the seed varies the draws, not the mix, and
	// the clients start half a cycle apart.
	cycle := []drawPlan{warm[0], warm[4], warm[1], warm[2], warm[3], warm[0], warm[1], warm[5], warm[2]}
	return &workload{
		name: "large-single", workers: 2, fixed: []*model{col, dom}, warm: warm,
		probeMRF: col, probeCSP: dom, k: 1,
		plan: func(c, i int) opPlan {
			d := cycle[(i+c*len(cycle)/2)%len(cycle)]
			d.req.Seed = opHash(seed, c, i, 1)
			return opPlan{drawPlan: d}
		},
	}
}

// Sweep parameters. Weighted dominating sets are drawn only at λ ≥ 0.6:
// at λ = 0.5 a 64² spec fails registration (see knownDefectProbe).
var (
	sweepWDLambdas = []float64{0.6, 0.8, 1, 1.5, 2, 3}
	sweepSide      = 64
)

// sweepOpBudget caps the registrations of one timed phase so that every
// run registers the same number of specs (the registry keeps them all,
// so peak RSS would otherwise grow with throughput) and stays far below
// the server's 1024-model limit.
const sweepOpBudget = 150

// sweep registers a fresh spec and draws once from it per op, cycling
// through six ops: two on a q-sweep coloring (one of them with
// rounds:"auto"), three on a λ-sweep hardcore model, and one on a λ-sweep
// weighted dominating set shipped as a 0.63 MB edge-list CSP spec. Op
// latencies cluster by kind (about 13, 30, 80 and 140 ms on a 2-CPU host),
// and this mix puts the median inside the hardcore cluster and the p90
// inside the dominating-set one rather than on a gap between clusters. The
// CSP share stays at a sixth because the registry keeps every model and
// each of these costs several MiB of server memory.
func sweep(seed uint64) (*workload, error) {
	const placeholder = "sweep-name-0000000000000000"
	templates := make([][]byte, len(sweepWDLambdas))
	for j, l := range sweepWDLambdas {
		spec, err := weightedDomsetSpec(sweepSide, sweepSide, l, domsetRounds, placeholder, true)
		if err != nil {
			return nil, err
		}
		templates[j] = spec
	}
	n := sweepSide
	edges := gridEdges(n, n)
	check := func(kind string, q int) *modelCheck { return &modelCheck{kind: kind, n: n * n, q: q, edges: edges} }
	probeCol := newModel("coloring", coloringSpec(n, n, 16, "sweep-probe-coloring"), coloringCheck(n, n, 16))
	probeWD := newModel("wdomset", templates[3], domsetCheck(n, n))
	w := &workload{name: "sweep", opBudget: sweepOpBudget, probeMRF: probeCol, probeCSP: probeWD, k: 1}
	// Each client walks the parameter grids with a stride coprime to their
	// sizes from a seeded offset, so every run covers the grids evenly.
	off := int(seed % 1000)
	w.plan = func(c, i int) opPlan {
		name := fmt.Sprintf("sweep-name-%016x", opHash(seed, c, i, 4))
		req := sampleReq{K: 1, Seed: opHash(seed, c, i, 1)}
		cycle, slot := i/6, i%6
		var m *model
		switch slot {
		case 0, 2:
			t := 2*cycle + slot/2
			q := 14 + (off+7*t+5*c)%19 // q ∈ [14,32], inside the proved regime q ≳ (2+√2)Δ
			m = newModel("coloring", coloringSpec(n, n, q, name), check("coloring", q))
			if slot == 2 {
				req.Rounds = "auto"
			}
		case 1, 3, 5:
			t := 3*cycle + slot/2
			lambda := 0.1 * float64(1+(off+7*t+5*c)%20) // λ ∈ [0.1, 2]
			m = newModel("hardcore", hardcoreSpec(n, n, lambda, name), check("hardcore", 2))
		default:
			spec := bytes.Replace(templates[(off+cycle+3*c)%len(templates)], []byte(placeholder), []byte(name), 1)
			m = newModel("wdomset", spec, check("domset", 2))
		}
		return opPlan{drawPlan: drawPlan{m: m, req: req, tag: tagSeq}, register: true}
	}
	return w, nil
}
