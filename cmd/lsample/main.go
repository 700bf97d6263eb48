// Command lsample draws samples from a Gibbs distribution with the paper's
// distributed algorithms and reports round/message statistics. The model
// is compiled once and every draw (MRF and CSP alike) goes through the
// compiled sampler's Draw: chain i of -count chains runs at
// ChainSeed(-seed, i), exactly as lserved draws, so a single draw and its
// -trace, -diag and -rounds auto variants are chain 0 of the -count draw.
// -distributed instead runs that chain 0 on the LOCAL-model simulator and
// reports its messages. With -shards > 1 every single chain additionally
// runs shard-parallel on the cluster runtime — bit-identical output, one
// chain over many cores; with -parallel > 1 each chain's round phases
// instead fan over goroutines (also bit-identical, no partition plan).
//
// Workloads come either from the built-in generator flags or, with
// -model-file, from a versioned JSON spec — the same wire format
// cmd/lserved serves, so any servable model is samplable locally and vice
// versa. -json switches the report to machine-readable JSON.
//
// Examples:
//
//	lsample -graph grid -rows 16 -cols 16 -model coloring -q 12 -alg localmetropolis -distributed
//	lsample -graph regular -n 100 -d 6 -model hardcore -lambda 0.5 -alg lubyglauber -eps 0.01
//	lsample -graph cycle -n 64 -model ising -beta 1.4 -alg glauber -rounds 5000
//	lsample -graph grid -rows 64 -cols 64 -model coloring -count 256 -workers 8
//	lsample -graph grid -rows 1024 -cols 1024 -model coloring -shards 4 -rounds 24
//	lsample -graph complete -n 40 -model domset -lambda 0.8 -count 64 -rounds 300
//	lsample -graph grid -rows 512 -cols 512 -model domset -shards 4 -rounds 100
//	lsample -graph grid -rows 512 -cols 512 -model domset -parallel 4 -rounds 100
//	lsample -model-file spec.json -count 16 -seed 7 -json
//	lsample -graph grid -rows 64 -cols 64 -model coloring -shards 4 -rounds 50 -trace out.json
//	lsample -graph grid -rows 16 -cols 16 -model coloring -q 16 -diag
//	lsample -graph grid -rows 16 -cols 16 -model coloring -q 16 -rounds auto -json
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"locsample"
)

func main() {
	var (
		graphKind = flag.String("graph", "grid", "graph family: path|cycle|grid|torus|complete|star|hypercube|regular|gnp")
		n         = flag.Int("n", 64, "vertex count (path/cycle/complete/star/regular/gnp)")
		rows      = flag.Int("rows", 8, "grid/torus rows")
		cols      = flag.Int("cols", 8, "grid/torus cols")
		dim       = flag.Int("dim", 6, "hypercube dimension")
		d         = flag.Int("d", 4, "regular-graph degree")
		p         = flag.Float64("p", 0.1, "G(n,p) edge probability")
		model     = flag.String("model", "coloring", "model: coloring|hardcore|is|vc|ising|potts|domset")
		q         = flag.Int("q", 0, "colors / Potts states (default 3Δ+1 for coloring)")
		lambda    = flag.Float64("lambda", 1, "hardcore fugacity")
		beta      = flag.Float64("beta", 1.5, "Ising/Potts edge parameter")
		field     = flag.Float64("h", 1, "Ising field")
		algName   = flag.String("alg", "localmetropolis", "algorithm: glauber|lubyglauber|localmetropolis|scan|chromatic")
		eps       = flag.Float64("eps", 0.05, "total-variation target for the automatic round budget")
		roundsStr = flag.String("rounds", "", "round budget: an integer override, \"auto\" to measure it by coupling coalescence (the theory budget caps the search), or empty for theory")
		seed      = flag.Uint64("seed", 1, "random seed")
		distr     = flag.Bool("distributed", false, "run the single chain on the LOCAL-model simulator and report message stats")
		count     = flag.Int("count", 1, "number of independent samples, spread over the worker pool")
		workers   = flag.Int("workers", 0, "worker goroutines for -count > 1 (0 = GOMAXPROCS)")
		shards    = flag.Int("shards", 0, "shard workers per chain (sharded cluster runtime when > 1; MRF and CSP workloads alike; bit-identical output)")
		parallel  = flag.Int("parallel", 0, "vertex-parallel goroutines per round phase (when > 1; MRF and CSP workloads alike; bit-identical output, exclusive with -shards)")
		shardStr  = flag.String("shard-strategy", "range", "graph partitioner: range|bfs")
		modelFile = flag.String("model-file", "", "load the workload from a JSON spec file (overrides -graph/-model flags)")
		jsonOut   = flag.Bool("json", false, "emit the report and samples as JSON")
		verbose   = flag.Bool("v", false, "print the full sample (text mode; JSON always includes samples)")
		tracePath = flag.String("trace", "", "record the draw and write Chrome trace-event JSON to this file (single draws only; open in chrome://tracing or Perfetto; the traced draw is bit-identical to the untraced one)")
		diag      = flag.Bool("diag", false, "run the draw as a coupled-chain diagnosed draw and report coalescence (single draws only; the sample is bit-identical to an undiagnosed draw)")
	)
	flag.Parse()
	traceOut = *tracePath
	diagOut = *diag
	rounds := 0
	switch v := strings.ToLower(strings.TrimSpace(*roundsStr)); v {
	case "", "0":
		// Theory budget (or each path's default).
	case "auto":
		roundsAuto = true
	default:
		r, err := strconv.Atoi(v)
		if err != nil || r < 0 {
			fatal(fmt.Errorf("-rounds must be a non-negative integer or \"auto\", got %q", *roundsStr))
		}
		rounds = r
	}
	if traceOut != "" && *count > 1 {
		fatal(fmt.Errorf("-trace records a single draw; it is not supported with -count > 1"))
	}
	if traceOut != "" && *distr {
		fatal(fmt.Errorf("-trace is not supported with -distributed (the LOCAL-model replay has no round kernel to time)"))
	}
	if diagOut && *count > 1 {
		fatal(fmt.Errorf("-diag diagnoses a single draw; it is not supported with -count > 1"))
	}
	if diagOut && *distr {
		fatal(fmt.Errorf("-diag is not supported with -distributed (couplings run on the chain runtime, not the LOCAL-model replay)"))
	}
	if diagOut && traceOut != "" {
		fatal(fmt.Errorf("-diag and -trace are mutually exclusive (diagnosed draws record round series, not trace spans)"))
	}
	if roundsAuto && *distr {
		fatal(fmt.Errorf("-rounds auto is not supported with -distributed"))
	}
	if *distr && *count > 1 {
		fatal(fmt.Errorf("-distributed runs one chain on the LOCAL-model simulator; it is not supported with -count > 1"))
	}

	strat, err := locsample.ParseShardStrategy(*shardStr)
	if err != nil {
		fatal(err)
	}
	if *modelFile != "" {
		runSpecFile(*modelFile, *algName, *eps, rounds, *seed, *distr, *count, *workers,
			*shards, *parallel, strat, *jsonOut, *verbose)
		return
	}

	g, err := buildGraph(*graphKind, *n, *rows, *cols, *dim, *d, *p, *seed)
	if err != nil {
		fatal(err)
	}
	if *model == "domset" {
		c := locsample.NewWeightedDominatingSet(g, *lambda)
		init := make([]int, g.N())
		for i := range init {
			init[i] = 1
		}
		desc := fmt.Sprintf("dominating set λ=%g (weighted local CSP)", *lambda)
		runCSP(g, c, init, desc, rounds, *seed, *distr, *count, *workers,
			*shards, *parallel, strat, *jsonOut, *verbose, true)
		return
	}
	m, modelDesc, err := buildModel(g, *model, *q, *lambda, *beta, *field)
	if err != nil {
		fatal(err)
	}
	runMRF(g, m, *graphKind, modelDesc, reportKeyForFlag(*model),
		*algName, *eps, rounds, *seed, *distr, *count, *workers, *shards, *parallel, strat, *jsonOut, *verbose)
}

// runSpecFile loads a workload from a spec file and dispatches to the MRF
// or CSP path.
func runSpecFile(path, algName string, eps float64, rounds int, seed uint64,
	distr bool, count, workers, shards, parallel int, strat locsample.ShardStrategy,
	jsonOut, verbose bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	s, err := locsample.ParseSpec(data)
	if err != nil {
		fatal(err)
	}
	built, err := locsample.BuildSpec(s)
	if err != nil {
		fatal(err)
	}
	desc := fmt.Sprintf("spec %s (kind %s)", shortHash(built.Hash), s.Model.Kind)
	if s.Name != "" {
		desc = fmt.Sprintf("spec %q %s (kind %s)", s.Name, shortHash(built.Hash), s.Model.Kind)
	}
	graphKind := s.Graph.Family
	if graphKind == "" {
		graphKind = "edges"
	}
	if built.CSP != nil {
		if rounds <= 0 {
			rounds = built.Rounds
		}
		// Adopt the spec's serving defaults, except where the user already
		// picked a runtime (same precedence as the MRF path below).
		if shards == 0 && parallel <= 1 && !distr {
			shards = built.Shards
		}
		if parallel == 0 && shards <= 1 && !distr {
			parallel = built.Parallel
		}
		runCSP(built.Graph, built.CSP, built.Init, desc, rounds, seed, distr, count, workers,
			shards, parallel, strat, jsonOut, verbose, false)
		return
	}
	// Adopt the spec's serving defaults, except where the user already
	// picked a runtime: -distributed, -shards, and -parallel are mutually
	// exclusive, and an explicit flag suppresses the defaults of the
	// others (so -parallel on a spec whose default is shards runs
	// parallel, and vice versa).
	if shards == 0 && parallel <= 1 && !distr {
		shards = built.Shards
	}
	if parallel == 0 && shards <= 1 && !distr {
		parallel = built.Parallel
	}
	runMRF(built.Graph, built.Model, graphKind, desc, reportKeyForSpec(s.Model.Kind),
		algName, eps, rounds, seed, distr, count, workers, shards, parallel, strat, jsonOut, verbose)
}

// jsonReport is the -json output shape, shared by MRF and CSP runs.
type jsonReport struct {
	Graph struct {
		Kind   string `json:"kind"`
		N      int    `json:"n"`
		M      int    `json:"m"`
		MaxDeg int    `json:"maxDeg"`
	} `json:"graph"`
	Model        string                `json:"model"`
	Algorithm    string                `json:"algorithm"`
	Rounds       int                   `json:"rounds"`
	TheoryRounds int                   `json:"theoryRounds,omitempty"`
	Seed         uint64                `json:"seed"`
	Count        int                   `json:"count"`
	Shards       int                   `json:"shards,omitempty"`
	Parallel     int                   `json:"parallel,omitempty"`
	ElapsedMS    float64               `json:"elapsedMs,omitempty"`
	Stats        *locsample.Stats      `json:"stats,omitempty"`
	ShardStats   *locsample.ShardStats `json:"shardStats,omitempty"`
	CapRounds    int                   `json:"capRounds,omitempty"`
	Diagnosis    *locsample.Diagnosis  `json:"diagnosis,omitempty"`
	Samples      [][]int               `json:"samples"`
}

func newJSONReport(g *locsample.Graph, kind, model, alg string, seed uint64) *jsonReport {
	r := &jsonReport{Model: model, Algorithm: alg, Seed: seed}
	r.Graph.Kind = kind
	r.Graph.N = g.N()
	r.Graph.M = g.M()
	r.Graph.MaxDeg = g.MaxDeg()
	return r
}

func emitJSON(r *jsonReport) {
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(r); err != nil {
		fatal(err)
	}
}

// runMRF draws an MRF workload: -distributed on the LOCAL-model simulator
// at chain seed ChainSeed(seed, 0), everything else through the compiled
// sampler's Draw.
func runMRF(g *locsample.Graph, m *locsample.Model, graphKind, modelDesc, reportKey,
	algName string, eps float64, rounds int, seed uint64, distr bool,
	count, workers, shards, parallel int, strat locsample.ShardStrategy, jsonOut, verbose bool) {
	alg, err := parseAlg(algName)
	if err != nil {
		fatal(err)
	}
	opts := append(runtimeOpts(workers, shards, parallel, strat),
		locsample.WithAlgorithm(alg), locsample.WithEpsilon(eps))
	if rounds > 0 {
		opts = append(opts, locsample.WithRounds(rounds))
	}
	r := &run{g: g, kind: graphKind, model: modelDesc, alg: alg.String(), seed: seed, eps: eps,
		parallel: parallel, verdict: func(x []int) { report(g, reportKey, x) }}
	if distr {
		res, err := locsample.Sample(m, append(opts,
			locsample.WithSeed(locsample.ChainSeed(seed, 0)), locsample.Distributed())...)
		if err != nil {
			fatal(err)
		}
		r.samples, r.rounds, r.theory, r.stats = [][]int{res.Sample}, res.Rounds, res.TheoryRounds, &res.Stats
	} else {
		s, err := locsample.NewSampler(m, append(opts, locsample.WithSeed(seed))...)
		if err != nil {
			fatal(err)
		}
		r.draw(s, count)
	}
	r.emit(jsonOut, verbose)
}

// runtimeOpts maps the runtime flags shared by MRF and CSP workloads to
// sampler options.
func runtimeOpts(workers, shards, parallel int, strat locsample.ShardStrategy) []locsample.Option {
	var opts []locsample.Option
	if roundsAuto {
		opts = append(opts, locsample.WithRoundsAuto())
	}
	if workers > 0 {
		opts = append(opts, locsample.WithWorkers(workers))
	}
	if shards > 1 {
		opts = append(opts, locsample.WithShards(shards), locsample.WithShardStrategy(strat))
	}
	if parallel > 1 {
		opts = append(opts, locsample.WithParallelRounds(parallel))
	}
	return opts
}

// drawer is the compiled draw surface Sampler and CSPSampler share.
type drawer interface {
	Draw(context.Context, locsample.DrawRequest) (*locsample.Batch, error)
	CapRounds() int
	Close() error
}

// run is one lsample invocation's workload and outcome, MRF or CSP.
type run struct {
	g           *locsample.Graph
	kind, model string
	alg         string
	seed        uint64
	eps         float64
	parallel    int
	// verdict prints the validity line for one sample.
	verdict func(sample []int)

	samples        [][]int
	rounds, theory int
	capRounds      int
	elapsed        time.Duration
	stats          *locsample.Stats
	shard          *locsample.ShardStats
	diagnosis      *locsample.Diagnosis
}

// draw runs the one compiled draw — count chains at the master seed,
// traced or diagnosed when the flags ask — and records its outcome. Chain
// i runs at ChainSeed(seed, i), exactly as lserved draws.
func (r *run) draw(s drawer, count int) {
	defer s.Close()
	start := time.Now()
	b, err := s.Draw(context.Background(), locsample.DrawRequest{
		Seed: r.seed, K: count, Trace: traceOut != "", Diagnose: diagOut,
	})
	if err != nil {
		fatal(err)
	}
	r.elapsed = time.Since(start)
	if b.Trace != nil {
		writeTraceFile(traceOut, b.Trace)
	}
	r.samples, r.rounds, r.theory, r.diagnosis = b.Samples, b.Rounds, b.TheoryRounds, b.Diagnosis
	r.capRounds = s.CapRounds()
	if b.Shard.Shards > 1 {
		r.shard = &b.Shard
	}
}

// emit reports the run as JSON or text.
func (r *run) emit(jsonOut, verbose bool) {
	count := len(r.samples)
	if jsonOut {
		j := newJSONReport(r.g, r.kind, r.model, r.alg, r.seed)
		j.Rounds, j.TheoryRounds, j.CapRounds, j.Count = r.rounds, r.theory, r.capRounds, count
		j.Stats, j.ShardStats, j.Diagnosis, j.Samples = r.stats, r.shard, r.diagnosis, r.samples
		if count > 1 {
			j.ElapsedMS = float64(r.elapsed.Nanoseconds()) / 1e6
		}
		if r.shard != nil {
			j.Shards = r.shard.Shards
		}
		if r.parallel > 1 {
			j.Parallel = r.parallel
		}
		emitJSON(j)
		return
	}
	fmt.Printf("graph: %s  n=%d  m=%d  Δ=%d\n", r.kind, r.g.N(), r.g.M(), r.g.MaxDeg())
	fmt.Printf("model: %s\n", r.model)
	fmt.Printf("algorithm: %s  rounds=%d", r.alg, r.rounds)
	switch {
	case roundsAuto:
		fmt.Printf("  (measured by coupling coalescence, cap %d)", r.capRounds)
	case r.theory > 0:
		fmt.Printf("  (theory budget for ε=%g)", r.eps)
	}
	fmt.Println()
	if count > 1 {
		fmt.Printf("batch: %d samples in %v  (%.1f samples/sec)\n",
			count, r.elapsed.Round(time.Millisecond), float64(count)/r.elapsed.Seconds())
	}
	if r.diagnosis != nil {
		printDiagnosis(r.diagnosis)
	}
	if st := r.stats; st != nil {
		fmt.Printf("communication: %d LOCAL rounds, %d messages, %d bytes total, max message %d bytes\n",
			st.Rounds, st.Messages, st.Bytes, st.MaxMessageBytes)
	}
	if r.shard != nil {
		printShardStats(r.shard)
	}
	if r.parallel > 1 {
		fmt.Printf("parallel rounds: %d goroutines per phase\n", r.parallel)
	}
	if count > 0 {
		r.verdict(r.samples[0])
	}
	if verbose {
		for i, x := range r.samples {
			fmt.Printf("sample %d: %v\n", i, x)
		}
	}
}

// printShardStats reports the sharded runtime's profile in text mode.
func printShardStats(st *locsample.ShardStats) {
	fmt.Printf("sharding: %d shards, %d boundary messages (%d states), barrier wait %.2fms\n",
		st.Shards, st.BoundaryMessages, st.BoundaryValues, float64(st.BarrierWaitNS)/1e6)
}

func buildGraph(kind string, n, rows, cols, dim, d int, p float64, seed uint64) (*locsample.Graph, error) {
	switch kind {
	case "path":
		return locsample.PathGraph(n), nil
	case "cycle":
		return locsample.CycleGraph(n), nil
	case "grid":
		return locsample.GridGraph(rows, cols), nil
	case "torus":
		return locsample.TorusGraph(rows, cols), nil
	case "complete":
		return locsample.CompleteGraph(n), nil
	case "star":
		return locsample.StarGraph(n), nil
	case "hypercube":
		return locsample.HypercubeGraph(dim), nil
	case "regular":
		return locsample.RandomRegularGraph(n, d, seed)
	case "gnp":
		return locsample.GnpGraph(n, p, seed), nil
	default:
		return nil, fmt.Errorf("unknown graph family %q", kind)
	}
}

func buildModel(g *locsample.Graph, model string, q int, lambda, beta, h float64) (*locsample.Model, string, error) {
	switch model {
	case "coloring":
		if q == 0 {
			q = 3*g.MaxDeg() + 1
		}
		return locsample.NewColoring(g, q), fmt.Sprintf("uniform proper %d-coloring", q), nil
	case "hardcore":
		return locsample.NewHardcore(g, lambda), fmt.Sprintf("hardcore λ=%g (λ_c(Δ)=%g)", lambda, safeLambdaC(g.MaxDeg())), nil
	case "is":
		return locsample.NewIndependentSet(g), "uniform independent set", nil
	case "vc":
		return locsample.NewVertexCover(g), "uniform vertex cover", nil
	case "ising":
		return locsample.NewIsing(g, beta, h), fmt.Sprintf("Ising β=%g h=%g", beta, h), nil
	case "potts":
		if q == 0 {
			q = 3
		}
		return locsample.NewPotts(g, q, beta), fmt.Sprintf("Potts q=%d β=%g", q, beta), nil
	default:
		return nil, "", fmt.Errorf("unknown model %q", model)
	}
}

func safeLambdaC(maxDeg int) float64 {
	if maxDeg < 3 {
		return 0
	}
	return locsample.HardcoreUniquenessThreshold(maxDeg)
}

func parseAlg(s string) (locsample.Algorithm, error) {
	switch strings.ToLower(s) {
	case "glauber":
		return locsample.Glauber, nil
	case "lubyglauber", "luby":
		return locsample.LubyGlauber, nil
	case "localmetropolis", "lm":
		return locsample.LocalMetropolis, nil
	case "scan":
		return locsample.SystematicScan, nil
	case "chromatic":
		return locsample.ChromaticGlauber, nil
	default:
		return 0, fmt.Errorf("unknown algorithm %q", s)
	}
}

// reportKeyForFlag maps a -model flag value to a validity-report key.
func reportKeyForFlag(model string) string { return model }

// reportKeyForSpec maps a spec model kind to the same report keys.
func reportKeyForSpec(kind string) string {
	switch kind {
	case "coloring", "listcoloring":
		return "coloring"
	case "hardcore":
		return "hardcore"
	case "independentset":
		return "is"
	case "vertexcover":
		return "vc"
	case "ising", "potts":
		return "ising"
	default:
		return ""
	}
}

func report(g *locsample.Graph, key string, sample []int) {
	switch key {
	case "coloring":
		fmt.Printf("proper coloring: %v\n", g.IsProperColoring(sample))
	case "hardcore", "is":
		size := 0
		for _, s := range sample {
			size += s
		}
		fmt.Printf("independent set: %v  size=%d\n", g.IsIndependentSet(sample), size)
	case "vc":
		size := 0
		for _, s := range sample {
			size += s
		}
		fmt.Printf("vertex cover: %v  size=%d\n", g.IsVertexCover(sample), size)
	case "ising", "potts":
		counts := map[int]int{}
		for _, s := range sample {
			counts[s]++
		}
		fmt.Printf("spin counts: %v\n", counts)
	}
}

func shortHash(h string) string {
	if i := strings.IndexByte(h, ':'); i >= 0 && len(h) > i+13 {
		return h[:i+13]
	}
	return h
}

// runCSP draws a weighted-CSP workload (the -model domset flag and CSP
// specs) on the hypergraph LubyGlauber chain, the same ways runMRF draws
// an MRF: -distributed on the LOCAL-model simulator at ChainSeed(seed, 0),
// everything else through the compiled CSP sampler's Draw. domset gates
// the dominating-set verdict: it is meaningful only for the domset flag
// path, not for arbitrary q=2 CSP specs.
func runCSP(g *locsample.Graph, c *locsample.CSPModel, init []int, modelDesc string,
	rounds int, seed uint64, distr bool, count, workers, shards, parallel int,
	strat locsample.ShardStrategy, jsonOut, verbose, domset bool) {
	if rounds <= 0 {
		rounds = 200
	}
	opts := runtimeOpts(workers, shards, parallel, strat)
	r := &run{g: g, kind: "csp", model: modelDesc, alg: "hypergraph lubyglauber", seed: seed,
		parallel: parallel, verdict: func(x []int) { reportCSP(g, c, x, domset) }}
	if distr {
		out, st, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(seed, 0), true, opts...)
		if err != nil {
			fatal(err)
		}
		r.samples, r.rounds, r.stats = [][]int{out}, rounds, &st
	} else {
		s, err := locsample.NewCSPSampler(g, c, init,
			append(opts, locsample.WithRounds(rounds), locsample.WithSeed(seed))...)
		if err != nil {
			fatal(err)
		}
		r.draw(s, count)
	}
	r.emit(jsonOut, verbose)
}

// reportCSP prints the validity verdict for one CSP sample.
func reportCSP(g *locsample.Graph, c *locsample.CSPModel, out []int, domset bool) {
	if domset {
		size := 0
		for _, x := range out {
			size += x
		}
		fmt.Printf("dominating: %v  size=%d\n", g.IsDominatingSet(out), size)
	} else {
		fmt.Printf("feasible: %v\n", c.Feasible(out))
	}
}

// traceOut is the -trace flag: a path to write the single draw's Chrome
// trace-event JSON to ("" = tracing off). diagOut is the -diag flag
// (diagnosed draw with coalescence report) and roundsAuto the
// -rounds auto spelling (coupling-measured round budget); all three are
// resolved once in main.
var (
	traceOut   string
	diagOut    bool
	roundsAuto bool
)

// printDiagnosis reports a diagnosed draw's coalescence verdict in text
// mode.
func printDiagnosis(d *locsample.Diagnosis) {
	if d.Coalesced {
		fmt.Printf("mixing: %d coupled chains coalesced at round %d  (measured budget %d, ran %d, cap %d)\n",
			d.Chains, d.CoalescenceRound, d.MeasuredRounds, d.Rounds, d.MaxRounds)
		return
	}
	final := 0
	if n := len(d.Series.Disagree); n > 0 {
		final = d.Series.Disagree[n-1]
	}
	fmt.Printf("mixing: %d coupled chains did NOT coalesce within %d rounds  (final disagreement %d sites)\n",
		d.Chains, d.Rounds, final)
}

// writeTraceFile exports a recorded trace as Chrome trace-event JSON.
func writeTraceFile(path string, tr *locsample.Trace) {
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := tr.WriteChrome(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "lsample: trace %s written to %s\n", tr.ID, path)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lsample:", err)
	os.Exit(1)
}
