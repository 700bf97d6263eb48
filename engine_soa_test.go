package locsample_test

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"locsample"
)

// TestSampleNSoABitIdentical pins the SoA batch engine's determinism
// contract at the API level: chain i of a draw under WithBatchWidth(w)
// is bit-identical to Sample(WithSeed(ChainSeed(s, i))) at widths 8, 16,
// and 33 — 33 chains cut into tail blocks at 8 and 16, and one odd
// full-width block at 33 — for the coloring and Ising kernels (CI-gated
// via the bit-identity suite).
func TestSampleNSoABitIdentical(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	for _, tc := range []struct {
		name  string
		model *locsample.Model
		alg   locsample.Algorithm
	}{
		{"localmetropolis-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.LocalMetropolis},
		{"localmetropolis-ising", locsample.NewIsing(g, 0.9, 0.4), locsample.LocalMetropolis},
		{"lubyglauber-coloring", locsample.NewColoring(g, 2*g.MaxDeg()+1), locsample.LubyGlauber},
		{"glauber-coloring", locsample.NewColoring(g, 3*g.MaxDeg()), locsample.Glauber},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const seed, k = 42, 33
			base := []locsample.Option{
				locsample.WithAlgorithm(tc.alg),
				locsample.WithRounds(30),
			}
			want := make([][]int, k)
			for i := range want {
				single, err := locsample.Sample(tc.model,
					append(base, locsample.WithSeed(locsample.ChainSeed(seed, i)))...)
				if err != nil {
					t.Fatal(err)
				}
				want[i] = single.Sample
			}
			for _, width := range []int{8, 16, 33} {
				s, err := locsample.NewSampler(tc.model,
					append(base, locsample.WithSeed(seed), locsample.WithBatchWidth(width))...)
				if err != nil {
					t.Fatal(err)
				}
				batch, err := s.SampleNFrom(seed, k)
				if err != nil {
					t.Fatal(err)
				}
				if batch.SoAWidth != width {
					t.Fatalf("width=%d: batch ran at SoAWidth %d", width, batch.SoAWidth)
				}
				if !reflect.DeepEqual(batch.Samples, want) {
					t.Fatalf("width=%d: SoA batch diverges from derived-seed singles", width)
				}
			}
			// Auto width takes the SoA path for a 33-chain batch and stays
			// identical; width 1 forces the per-chain reference path.
			auto, err := locsample.NewSampler(tc.model, append(base, locsample.WithSeed(seed))...)
			if err != nil {
				t.Fatal(err)
			}
			ab, err := auto.SampleNFrom(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			if ab.SoAWidth == 0 {
				t.Fatal("auto width did not take the SoA path for k=33")
			}
			if !reflect.DeepEqual(ab.Samples, want) {
				t.Fatal("auto-width SoA batch diverges from derived-seed singles")
			}
			aos, err := locsample.NewSampler(tc.model,
				append(base, locsample.WithSeed(seed), locsample.WithBatchWidth(1))...)
			if err != nil {
				t.Fatal(err)
			}
			rb, err := aos.SampleNFrom(seed, k)
			if err != nil {
				t.Fatal(err)
			}
			if rb.SoAWidth != 0 {
				t.Fatalf("WithBatchWidth(1) still ran SoA at width %d", rb.SoAWidth)
			}
			if !reflect.DeepEqual(rb.Samples, want) {
				t.Fatal("per-chain reference batch diverges from derived-seed singles")
			}
		})
	}
}

// TestSampleCSPNSoABitIdentical is the CSP face of the same contract:
// dominating-set batch chains through the SoA engine at widths 8/16/33
// equal per-chain SampleCSP draws at the derived seeds.
func TestSampleCSPNSoABitIdentical(t *testing.T) {
	g, c, init := cspTestWorkload(t)
	const rounds, seed, k = 15, 9, 33
	want := make([][]int, k)
	for i := range want {
		out, _, err := locsample.SampleCSP(g, c, init, rounds, locsample.ChainSeed(seed, i), false)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	for _, width := range []int{8, 16, 33} {
		s, err := locsample.NewCSPSampler(g, c, init,
			locsample.WithRounds(rounds), locsample.WithSeed(seed), locsample.WithBatchWidth(width))
		if err != nil {
			t.Fatal(err)
		}
		batch, err := s.SampleNFrom(seed, k)
		if err != nil {
			t.Fatal(err)
		}
		if batch.SoAWidth != width {
			t.Fatalf("width=%d: batch ran at SoAWidth %d", width, batch.SoAWidth)
		}
		if !reflect.DeepEqual(batch.Samples, want) {
			t.Fatalf("width=%d: SoA CSP batch diverges from derived-seed singles", width)
		}
	}
}

// TestSampleNFromSoAConcurrent exercises the SoA path under concurrent
// SampleNFrom calls — the serving pattern — so the race detector sees the
// block pool, the claim loop, and the scatter writes under contention.
func TestSampleNFromSoAConcurrent(t *testing.T) {
	g := locsample.GridGraph(8, 8)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(model,
		locsample.WithRounds(20), locsample.WithBatchWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	const callers, k = 4, 17
	ref, err := s.SampleNFrom(7, k)
	if err != nil {
		t.Fatal(err)
	}
	if ref.SoAWidth != 8 {
		t.Fatalf("reference batch ran at SoAWidth %d, want 8", ref.SoAWidth)
	}
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			batch, err := s.SampleNFrom(seed, k)
			if err != nil {
				errs <- err
				return
			}
			if seed == 7 && !reflect.DeepEqual(batch.Samples, ref.Samples) {
				t.Error("concurrent SoA batch diverges from sequential reference")
			}
		}(uint64(5 + c%2*2)) // seeds 5 and 7 interleaved
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestSampleNWorkerPoolClamped pins the worker-pool sizing satellite: a
// batch that cuts into a single SoA block must not spin a
// GOMAXPROCS-sized pool. The run is observed via the process goroutine
// count while the draw is in flight.
func TestSampleNWorkerPoolClamped(t *testing.T) {
	g := locsample.GridGraph(48, 48)
	model := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(model,
		locsample.WithRounds(300),
		locsample.WithWorkers(8),
		locsample.WithBatchWidth(8))
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pools so the measured run spawns only claim-loop workers.
	if _, err := s.SampleNFrom(0, 8); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	done := make(chan error, 1)
	go func() {
		_, err := s.SampleNFrom(0, 8) // one block of 8 lanes -> one worker
		done <- err
	}()
	peak := base
	for {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			// base + launcher + 1 clamped worker, with slack for runtime
			// housekeeping; an unclamped pool would add 8.
			if peak > base+5 {
				t.Fatalf("goroutines peaked at %d over a base of %d; pool not clamped to the block count", peak, base)
			}
			return
		default:
			if n := runtime.NumGoroutine(); n > peak {
				peak = n
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
}
