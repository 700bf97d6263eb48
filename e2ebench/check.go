package main

import (
	"fmt"

	"locsample"
	"locsample/internal/service"
)

// modelCheck is what a valid sample of one served model looks like,
// derived from the benchmark's own description of the graph rather than
// from the program, so a defect in the program cannot hide in its checker.
type modelCheck struct {
	kind  string // "coloring", "domset" or "hardcore"
	n, q  int
	edges [][2]int32
}

// gridEdges lists the edges of a rows×cols grid, vertex r*cols+c.
func gridEdges(rows, cols int) [][2]int32 {
	var es [][2]int32
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			v := int32(r*cols + c)
			if c+1 < cols {
				es = append(es, [2]int32{v, v + 1})
			}
			if r+1 < rows {
				es = append(es, [2]int32{v, v + int32(cols)})
			}
		}
	}
	return es
}

// check verifies length, value domain and the model's hard constraint:
// a proper coloring, a dominating set (value 1 = in the set), or an
// independent set (value 1 = occupied).
func (mc *modelCheck) check(x []int) error {
	if len(x) != mc.n {
		return fmt.Errorf("sample has %d values, want %d", len(x), mc.n)
	}
	for v, val := range x {
		if val < 0 || val >= mc.q {
			return fmt.Errorf("vertex %d value %d outside [0,%d)", v, val, mc.q)
		}
	}
	switch mc.kind {
	case "coloring":
		for _, e := range mc.edges {
			if x[e[0]] == x[e[1]] {
				return fmt.Errorf("improper coloring: edge %d-%d both %d", e[0], e[1], x[e[0]])
			}
		}
	case "hardcore":
		for _, e := range mc.edges {
			if x[e[0]] == 1 && x[e[1]] == 1 {
				return fmt.Errorf("not an independent set: edge %d-%d both occupied", e[0], e[1])
			}
		}
	case "domset":
		dominated := make([]bool, mc.n)
		for v, val := range x {
			dominated[v] = val == 1
		}
		for _, e := range mc.edges {
			if x[e[0]] == 1 {
				dominated[e[1]] = true
			}
			if x[e[1]] == 1 {
				dominated[e[0]] = true
			}
		}
		for v, d := range dominated {
			if !d {
				return fmt.Errorf("not a dominating set: vertex %d undominated", v)
			}
		}
	default:
		return fmt.Errorf("no check for model kind %q", mc.kind)
	}
	return nil
}

// checkResponse verifies one 200 draw response against its request.
func (mc *modelCheck) checkResponse(req sampleReq, resp *service.SampleResponse) error {
	if resp.Seed != req.Seed {
		return fmt.Errorf("response seed %d, requested %d", resp.Seed, req.Seed)
	}
	if resp.K != req.K || len(resp.Samples) != req.K {
		return fmt.Errorf("response k=%d with %d samples, requested k=%d", resp.K, len(resp.Samples), req.K)
	}
	if resp.Rounds <= 0 {
		return fmt.Errorf("response ran %d rounds", resp.Rounds)
	}
	for i, x := range resp.Samples {
		if err := mc.check(x); err != nil {
			return fmt.Errorf("chain %d: %w", i, err)
		}
	}
	return nil
}

// localModel redraws served chains in-process: chain i of a served draw
// with seed s must equal the local draw at ChainSeed(s, i) with the same
// round count, bit for bit. The spec is built on first use.
type localModel struct {
	spec  []byte
	built *locsample.BuiltSpec
}

func (lm *localModel) build() (*locsample.BuiltSpec, error) {
	if lm.built == nil {
		s, err := locsample.ParseSpec(lm.spec)
		if err != nil {
			return nil, err
		}
		if lm.built, err = locsample.BuildSpec(s); err != nil {
			return nil, err
		}
	}
	return lm.built, nil
}

// chain draws chain i of a (seed, rounds) draw locally.
func (lm *localModel) chain(seed uint64, i, rounds int) ([]int, error) {
	b, err := lm.build()
	if err != nil {
		return nil, err
	}
	cs := locsample.ChainSeed(seed, i)
	if b.CSP != nil {
		x, _, err := locsample.SampleCSP(b.Graph, b.CSP, b.Init, rounds, cs, false)
		return x, err
	}
	res, err := locsample.Sample(b.Model, locsample.WithAlgorithm(locsample.LocalMetropolis),
		locsample.WithRounds(rounds), locsample.WithSeed(cs))
	if err != nil {
		return nil, err
	}
	return res.Sample, nil
}

// verifyChain compares served chain i against its local redraw.
func (lm *localModel) verifyChain(resp *service.SampleResponse, i int) error {
	want, err := lm.chain(resp.Seed, i, resp.Rounds)
	if err != nil {
		return fmt.Errorf("local redraw: %w", err)
	}
	got := resp.Samples[i]
	if len(got) != len(want) {
		return fmt.Errorf("chain %d: %d values, local draw has %d", i, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] {
			return fmt.Errorf("chain %d differs from the local draw at ChainSeed(%d, %d) first at vertex %d", i, resp.Seed, i, v)
		}
	}
	return nil
}
