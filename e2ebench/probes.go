package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"time"

	"locsample"
	"locsample/internal/chains"
	"locsample/internal/csp"
	"locsample/internal/partition"
	"locsample/internal/service"
)

// prober times calls into each layer's public functions, one root span
// per call, and collects the per-layer metrics.
type prober struct {
	rec  *Recorder
	op   int
	seed uint64
	out  map[string]float64
}

// timed runs f reps times and returns the median wall time.
func (p *prober) timed(name string, reps int, f func() error) (time.Duration, error) {
	ds := make([]float64, 0, reps)
	for i := 0; i < reps; i++ {
		p.op++
		id := p.rec.Begin(p.op, 0, name)
		t0 := time.Now()
		err := f()
		d := time.Since(t0)
		p.rec.End(id)
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// nextSeed gives every probe draw its own seed, derived from the run seed.
func (p *prober) nextSeed() uint64 {
	p.op++
	return opHash(p.seed, -2, p.op, 1)
}

const (
	probeReps   = 3
	kernelReps  = 3
	kernelRound = 16 // rounds per kernel timing: per-round costs need no full budget
	soaProbeW   = 8  // SoA lane width the kernel probes run
)

// probeLayers runs every in-process probe on the workload's two probe
// models. workerAddrs are two lsharded workers for the remote probe.
func probeLayers(ctx context.Context, w *workload, p *prober, workerAddrs []string) error {
	specs := map[*model]*locsample.Spec{}
	builts := map[*model]*locsample.BuiltSpec{}
	var decode, hash, build, register, registerCached time.Duration
	for _, m := range []*model{w.probeMRF, w.probeCSP} {
		var s *locsample.Spec
		d, err := p.timed("spec.ParseSpec", probeReps, func() (err error) {
			s, err = locsample.ParseSpec(m.spec)
			return err
		})
		if err != nil {
			return err
		}
		decode += d
		if d, err = p.timed("spec.SpecHash", probeReps, func() error {
			_, err := locsample.SpecHash(s)
			return err
		}); err != nil {
			return err
		}
		hash += d
		var b *locsample.BuiltSpec
		if d, err = p.timed("spec.BuildSpec", probeReps, func() (err error) {
			b, err = locsample.BuildSpec(s)
			return err
		}); err != nil {
			return err
		}
		build += d
		specs[m], builts[m] = s, b

		var reg *service.Registry
		if d, err = p.timed("service.Registry.Register", probeReps, func() error {
			reg = service.NewRegistry(service.Config{})
			_, _, err := reg.Register(m.spec)
			return err
		}); err != nil {
			return err
		}
		register += d
		if d, err = p.timed("service.Registry.Register.cached", probeReps, func() error {
			_, cached, err := reg.Register(m.spec)
			if err == nil && !cached {
				err = fmt.Errorf("re-registration was not cached")
			}
			return err
		}); err != nil {
			return err
		}
		registerCached += d
	}
	p.out["spec.decode_ms"] = ms(decode)
	p.out["spec.hash_ms"] = ms(hash)
	p.out["spec.build_ms"] = ms(build)
	p.out["service.register_ms"] = ms(register)
	p.out["service.register_cached_ms"] = ms(registerCached)

	mrfB, cspB := builts[w.probeMRF], builts[w.probeCSP]
	if err := p.engineAndService(ctx, w, mrfB); err != nil {
		return err
	}
	if err := p.kernels(mrfB, cspB); err != nil {
		return err
	}
	if err := p.sharded(mrfB, specs[w.probeMRF], workerAddrs); err != nil {
		return err
	}
	d, err := p.timed("locsample.NewSampler.RoundsAuto", probeReps, func() error {
		s, err := locsample.NewSampler(mrfB.Model, locsample.WithRoundsAuto())
		if err == nil {
			p.out["diag.auto_budget_ratio"] = float64(s.Rounds()) / float64(s.CapRounds())
		}
		return err
	})
	if err != nil {
		return err
	}
	p.out["diag.auto_compile_ms"] = ms(d)
	return nil
}

// engineAndService times the engine draw, the registry's draw around it,
// and the request and response codecs of the HTTP layer.
func (p *prober) engineAndService(ctx context.Context, w *workload, b *locsample.BuiltSpec) error {
	k := w.k
	s, err := locsample.NewSampler(b.Model)
	if err != nil {
		return err
	}
	reg := service.NewRegistry(service.Config{})
	m, _, err := reg.Register(w.probeMRF.spec)
	if err != nil {
		return err
	}
	// The engine draw and the registry draw around it alternate on the
	// same seeds, so their difference is the registry's own cost.
	var batch *locsample.Batch
	var engine, served []float64
	for i := 0; i < probeReps; i++ {
		seed := p.nextSeed()
		d, err := p.timed("locsample.Sampler.SampleNFrom", 1, func() (err error) {
			batch, err = s.SampleNFrom(seed, k)
			return err
		})
		if err != nil {
			return err
		}
		engine = append(engine, float64(d))
		if d, err = p.timed("service.Registry.DrawContext", 1, func() error {
			_, err := reg.DrawContext(ctx, m, service.DrawOptions{K: k, Seed: seed})
			return err
		}); err != nil {
			return err
		}
		served = append(served, float64(d))
	}
	samplen := time.Duration(median(engine))
	p.out["engine.samplen_ms"] = ms(samplen)
	p.out["service.registry_overhead_ms"] = ms(time.Duration(median(served)) - samplen)
	p.out["engine.soa_width"] = float64(batch.SoAWidth)
	p.out["engine.lane_fill"] = 0
	if wd := batch.SoAWidth; wd > 0 {
		p.out["engine.lane_fill"] = float64(k) / float64((k+wd-1)/wd*wd)
	}
	single := samplen
	if k > 1 {
		if single, err = p.timed("locsample.Sampler.SampleNFrom.k1", probeReps, func() error {
			_, err := s.SampleNFrom(p.nextSeed(), 1)
			return err
		}); err != nil {
			return err
		}
	}
	p.out["engine.sample_ms"] = ms(single)

	body, err := json.Marshal(sampleReq{K: k, Seed: p.nextSeed()})
	if err != nil {
		return err
	}
	const decodes = 1000
	dec, err := p.timed("service.SampleRequest.Unmarshal", probeReps, func() error {
		for i := 0; i < decodes; i++ {
			var sr service.SampleRequest
			if err := json.Unmarshal(body, &sr); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	p.out["service.request_decode_us"] = float64(dec) / decodes / 1e3

	resp := service.SampleResponse{ID: m.Hash, K: k, Algorithm: "localmetropolis", Rounds: batch.Rounds, Samples: batch.Samples}
	enc, err := p.timed("service.SampleResponse.Encode", probeReps, func() error {
		return json.NewEncoder(io.Discard).Encode(resp)
	})
	if err != nil {
		return err
	}
	p.out["service.response_encode_ms"] = ms(enc)
	p.out["service.encode_ns_per_value"] = float64(enc) / float64(k*b.Graph.N())
	return nil
}

// kernels times the round kernels directly, per vertex-round (and per
// lane for the SoA blocks).
func (p *prober) kernels(mrfB, cspB *locsample.BuiltSpec) error {
	mrfM, n := mrfB.Model, mrfB.Graph.N()
	init, err := chains.GreedyFeasible(mrfM)
	if err != nil {
		return err
	}
	perVR := func(d time.Duration, lanes, vertices int) float64 {
		return float64(d) / float64(vertices*lanes*kernelRound)
	}
	for _, par := range []int{1, 2} {
		name, metric := "chains.Sampler.Run", "chains.ns_per_vertex_round"
		if par > 1 {
			name, metric = "chains.Sampler.Run.parallel", "chains.parallel_ns_per_vertex_round"
		}
		cs := chains.NewSampler(mrfM, init, p.nextSeed(), chains.LocalMetropolis, chains.Options{Parallel: par})
		d, err := p.timed(name, kernelReps, func() error {
			cs.Reset(init, p.nextSeed())
			cs.Run(kernelRound)
			return nil
		})
		if err != nil {
			return err
		}
		p.out[metric] = perVR(d, 1, n)
	}
	seeds := make([]uint64, soaProbeW)
	reseed := func() {
		for i := range seeds {
			seeds[i] = p.nextSeed()
		}
	}
	blk := chains.NewSoABlock(mrfM, chains.LocalMetropolis, chains.Options{}, soaProbeW)
	d, err := p.timed("chains.SoABlock.Run", kernelReps, func() error {
		reseed()
		blk.Reset(init, seeds)
		blk.Run(kernelRound)
		return nil
	})
	if err != nil {
		return err
	}
	p.out["chains.soa_ns_per_lane_vertex_round"] = perVR(d, soaProbeW, n)

	c, cn := cspB.CSP, cspB.Graph.N()
	x := make([]int, cn)
	sc := csp.NewScratch(c)
	if d, err = p.timed("csp.LubyGlauberRoundPRF", kernelReps, func() error {
		copy(x, cspB.Init)
		seed := p.nextSeed()
		for r := 0; r < kernelRound; r++ {
			csp.LubyGlauberRoundPRF(c, x, seed, r, sc)
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["csp.ns_per_vertex_round"] = perVR(d, 1, cn)
	cblk := csp.NewSoABlock(c, soaProbeW)
	if d, err = p.timed("csp.SoABlock.Step", kernelReps, func() error {
		reseed()
		cblk.Reset(cspB.Init, seeds)
		for r := 0; r < kernelRound; r++ {
			cblk.Step()
		}
		return nil
	}); err != nil {
		return err
	}
	p.out["csp.soa_ns_per_lane_vertex_round"] = perVR(d, soaProbeW, cn)
	return nil
}

// sharded times one chain over two in-process shards, the partition
// plan, and the same chain over two lsharded workers.
func (p *prober) sharded(b *locsample.BuiltSpec, s *locsample.Spec, workerAddrs []string) error {
	plan, err := p.timed("partition.Build", probeReps, func() error {
		_, err := partition.Build(b.Graph, 2, partition.Range, 0)
		return err
	})
	if err != nil {
		return err
	}
	p.out["partition.plan_ms"] = ms(plan)

	inproc, err := locsample.NewSampler(b.Model, locsample.WithShards(2))
	if err != nil {
		return err
	}
	defer inproc.Close()
	remote, err := locsample.NewSampler(b.Model, locsample.WithShards(2),
		locsample.WithRemoteWorkers(workerAddrs...), locsample.WithModelSpec(s))
	if err != nil {
		return err
	}
	defer remote.Close()
	var st locsample.ShardStats
	drawRemote := func(seed uint64) func() error {
		return func() error {
			batch, err := remote.SampleNFrom(seed, 1)
			if err == nil {
				st = batch.Shard
			}
			return err
		}
	}
	// The first remote draw also opens the coordinator session.
	first, err := p.timed("locsample.Sampler.SampleNFrom.remote.first", 1, drawRemote(p.nextSeed()))
	if err != nil {
		return err
	}
	// In-process and remote draws alternate on the same seeds, so their
	// difference is the cost of crossing processes.
	var shares, perRound, inprocT, remoteT []float64
	for i := 0; i < probeReps; i++ {
		seed := p.nextSeed()
		d, err := p.timed("locsample.Sampler.SampleNFrom.shards2", 1, func() error {
			t0 := time.Now()
			batch, err := inproc.SampleNFrom(seed, 1)
			if err != nil {
				return err
			}
			st := batch.Shard
			shares = append(shares, float64(st.BarrierWaitNS)/float64(int64(st.Shards)*time.Since(t0).Nanoseconds()))
			perRound = append(perRound, float64(st.BoundaryValues)/float64(st.Rounds))
			return nil
		})
		if err != nil {
			return err
		}
		inprocT = append(inprocT, float64(d))
		if d, err = p.timed("locsample.Sampler.SampleNFrom.remote", 1, drawRemote(seed)); err != nil {
			return err
		}
		remoteT = append(remoteT, float64(d))
	}
	cluster, steady := time.Duration(median(inprocT)), time.Duration(median(remoteT))
	p.out["cluster.draw_ms"] = ms(cluster)
	p.out["cluster.barrier_wait_share"] = median(shares)
	p.out["cluster.boundary_values_per_round"] = median(perRound)
	p.out["remote.draw_ms"] = ms(steady)
	p.out["remote.session_setup_ms"] = ms(first - steady)
	p.out["remote.overhead_ms"] = ms(steady - cluster)
	p.out["transport.wire_bytes_per_round"] = float64(st.WireBytes) / float64(st.Rounds)
	p.out["transport.wire_frames_per_round"] = float64(st.WireFrames) / float64(st.Rounds)
	return nil
}
