// Benchmarks: one family per experiment of the reproduction suite (DESIGN.md
// §4). Each benchmark exercises the workload that regenerates its
// experiment's table; the tables themselves are printed by cmd/lsexp. Run:
//
//	go test -bench=. -benchmem .
package locsample_test

import (
	"io"
	"testing"

	"locsample"
	"locsample/internal/chains"
	"locsample/internal/coupling"
	"locsample/internal/csp"
	"locsample/internal/dist"
	"locsample/internal/exact"
	"locsample/internal/experiments"
	"locsample/internal/graph"
	"locsample/internal/lowerbound"
	"locsample/internal/mrf"
	"locsample/internal/rng"
)

// --- E1: LubyGlauber scaling -------------------------------------------------

func BenchmarkE1LubyGlauberRound(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		q    int
	}{
		{"cycle1024-q5", graph.Cycle(1024), 5},
		{"torus32x32-q11", graph.Torus(32, 32), 11},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := mrf.Coloring(tc.g, tc.q)
			x, err := chains.GreedyFeasible(m)
			if err != nil {
				b.Fatal(err)
			}
			sc := chains.NewScratch(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chains.LubyGlauberRound(m, x, 1, i, sc)
			}
		})
	}
}

func BenchmarkE1MixingEstimate(b *testing.B) {
	m := mrf.Coloring(graph.Cycle(128), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		med, _ := coupling.MixingEstimate(m, chains.LubyGlauber, 3, 100000, uint64(i))
		if med < 0 {
			b.Fatal("no coalescence")
		}
	}
}

// --- E2: LocalMetropolis scaling ----------------------------------------------

func BenchmarkE2LocalMetropolisRound(b *testing.B) {
	for _, tc := range []struct {
		name string
		g    *graph.Graph
		q    int
	}{
		{"cycle1024-q8", graph.Cycle(1024), 8},
		{"torus32x32-q16", graph.Torus(32, 32), 16},
	} {
		b.Run(tc.name, func(b *testing.B) {
			m := mrf.Coloring(tc.g, tc.q)
			x, err := chains.GreedyFeasible(m)
			if err != nil {
				b.Fatal(err)
			}
			sc := chains.NewScratch(m)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				chains.ColoringLocalMetropolisRound(m, x, 1, i, false, sc)
			}
		})
	}
}

func BenchmarkE2DistributedRound(b *testing.B) {
	// Full message-passing protocol throughput (per chain iteration).
	g := graph.Torus(16, 16)
	m := mrf.Coloring(g, 16)
	init, err := chains.GreedyFeasible(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dist.RunMRF(m, chains.LocalMetropolis, init, uint64(i), 10, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3/E4: exact transition-matrix verification -------------------------------

func BenchmarkE3ExactLubyGlauber(b *testing.B) {
	m := mrf.Coloring(graph.Cycle(4), 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.LubyGlauberMatrix(m, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE4ExactLocalMetropolis(b *testing.B) {
	m := mrf.Coloring(graph.Path(3), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.LocalMetropolisMatrix(m, false, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E5: coupling contraction ---------------------------------------------------

func BenchmarkE5Contraction(b *testing.B) {
	g, err := graph.RandomRegular(48, 6, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	for _, kind := range []struct {
		name string
		k    coupling.Kind
	}{{"identical", coupling.Identical}, {"permuted", coupling.Permuted}} {
		b.Run(kind.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				coupling.ContractionEstimate(g, 22, kind.k, 50, 10, uint64(i))
			}
		})
	}
}

// --- E6: path correlation -------------------------------------------------------

func BenchmarkE6PathCorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for d := 1; d <= 16; d++ {
			_ = lowerbound.PathCorrelationTV(5, d)
			_ = lowerbound.PathJointProductTV(5, d)
		}
	}
}

// --- E7: gadget enumeration -------------------------------------------------------

func BenchmarkE7Gadget(b *testing.B) {
	gd, err := lowerbound.BuildGadget(8, 1, 3, rng.New(7))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := lowerbound.ComputeGadgetStats(gd, 6.0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: lifted cycle transfer matrices --------------------------------------------

func BenchmarkE8LiftedCycle(b *testing.B) {
	gd, err := lowerbound.BuildGadget(5, 2, 3, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	tr, err := lowerbound.ComputeTransfer(gd, 6.0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tr.PairPhaseProb(10, 0, 5); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8ProtocolPhases(b *testing.B) {
	gd, err := lowerbound.BuildGadget(5, 2, 3, rng.New(11))
	if err != nil {
		b.Fatal(err)
	}
	lc, err := lowerbound.BuildLiftedCycle(gd, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lowerbound.ProtocolPhaseJoint(lc, 6.0, 3, 50, uint64(i), 0, 3)
	}
}

// --- E9: MIS separation --------------------------------------------------------------

func BenchmarkE9Separation(b *testing.B) {
	g := graph.Cycle(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := dist.RunMIS(g, uint64(i), 10000); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E10: CSP chains -----------------------------------------------------------------

func BenchmarkE10CSP(b *testing.B) {
	c := csp.DominatingSet(graph.Grid(4, 4))
	init := make([]int, c.N)
	for i := range init {
		init[i] = 1
	}
	b.Run("lubyglauber", func(b *testing.B) {
		s := csp.NewSampler(c, init, 1)
		for i := 0; i < b.N; i++ {
			s.LubyGlauberStep()
		}
	})
	b.Run("localmetropolis", func(b *testing.B) {
		s := csp.NewSampler(c, init, 1)
		for i := 0; i < b.N; i++ {
			s.LocalMetropolisStep()
		}
	})
	b.Run("exact-matrix", func(b *testing.B) {
		small := csp.DominatingSet(graph.Path(4))
		for i := 0; i < b.N; i++ {
			if _, err := exact.CSPLocalMetropolisMatrix(small, 1<<20); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- E11: influence matrices ----------------------------------------------------------

func BenchmarkE11Influence(b *testing.B) {
	m := mrf.Coloring(graph.Cycle(4), 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.InfluenceMatrix(m, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E12: message accounting ------------------------------------------------------------

func BenchmarkE12Messages(b *testing.B) {
	g := graph.Cycle(256)
	m := mrf.Coloring(g, 5)
	init, err := chains.GreedyFeasible(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, st, err := dist.RunMRF(m, chains.LubyGlauber, init, uint64(i), 5, false)
		if err != nil {
			b.Fatal(err)
		}
		if st.MaxMessageBytes > 16 {
			b.Fatal("message too large")
		}
	}
}

// --- E13: exact TV-decay curves --------------------------------------------------------

func BenchmarkE13TVCurves(b *testing.B) {
	m := mrf.Coloring(graph.Cycle(4), 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.ExactTVCurves(m, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E14: synchronous-update ablation -----------------------------------------------------

func BenchmarkE14SyncAblation(b *testing.B) {
	m := mrf.Hardcore(graph.Cycle(4), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := exact.SynchronousGlauberMatrix(m, 1<<20); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Batch engine --------------------------------------------------------------------------

// batchModel is the acceptance workload: 3Δ-coloring of the 64×64 grid
// under LocalMetropolis.
func batchModel() (*locsample.Graph, *locsample.Model) {
	g := locsample.GridGraph(64, 64)
	return g, locsample.NewColoring(g, 3*g.MaxDeg())
}

const batchRounds = 120

// BenchmarkBatchSampleLoop is the baseline: k independent draws as k
// package-level Sample calls, each re-resolving the round budget and initial
// configuration and allocating fresh chain state.
func BenchmarkBatchSampleLoop(b *testing.B) {
	_, m := batchModel()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locsample.Sample(m,
			locsample.WithSeed(locsample.ChainSeed(1, i)),
			locsample.WithRounds(batchRounds)); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkBatchSampleN is the engine: the same chains drawn through
// Sampler.SampleNFrom, which compiles the model once and spreads chains over
// the worker pool with per-worker scratch reuse. Compare samples/sec
// against BenchmarkBatchSampleLoop; the engine target is ≥ 4× on an 8-core
// runner.
func BenchmarkBatchSampleN(b *testing.B) {
	_, m := batchModel()
	s, err := locsample.NewSampler(m,
		locsample.WithSeed(1),
		locsample.WithRounds(batchRounds))
	if err != nil {
		b.Fatal(err)
	}
	const k = 32
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.SampleNFrom(1, k); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N*k)/b.Elapsed().Seconds(), "samples/sec")
}

// BenchmarkBatchSteadyStateRound measures one steady-state chain round of
// the engine's hot path. ReportAllocs must show 0 allocs/op: all scratch is
// preallocated and reused.
func BenchmarkBatchSteadyStateRound(b *testing.B) {
	_, m := batchModel()
	init, err := chains.GreedyFeasible(m)
	if err != nil {
		b.Fatal(err)
	}
	s := chains.NewSampler(m, init, 1, chains.LocalMetropolis, chains.Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step()
	}
}

// --- End-to-end public API -----------------------------------------------------------------

func BenchmarkSampleColoringGrid(b *testing.B) {
	g := locsample.GridGraph(16, 16)
	model := locsample.NewColoring(g, 4*g.MaxDeg())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := locsample.Sample(model,
			locsample.WithSeed(uint64(i)),
			locsample.WithRounds(60)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuickSuite runs the fast experiment tables end to end, so the
// bench log records the whole reproduction working.
func BenchmarkQuickSuite(b *testing.B) {
	for _, id := range []string{"E3", "E4", "E6", "E11"} {
		e, ok := experiments.ByID(id)
		if !ok {
			b.Fatal("missing experiment")
		}
		b.Run(id, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := e.Run(io.Discard, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
