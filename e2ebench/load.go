package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"locsample/internal/service"
)

// opTimeout bounds one HTTP request. A timed-out op fails, and a failed op
// enters the latency percentiles as +Inf, reported as this value.
const opTimeout = 60 * time.Second

// nClients is the closed loop's width: two callers, each waiting for its
// reply before sending again, each on its own keep-alive connection.
const nClients = 2

// minOps is the fewest ops an untraced timed phase completes, so that the
// p90 has at least ten samples beyond it. The two halves of a traced run
// report no percentiles and complete at least half as many each.
const minOps = 100

// maxPhase bounds a timed phase that has not yet completed its ops.
const maxPhase = 100 * time.Second

// client is one caller with its own connection.
type client struct {
	hc   *http.Client
	base string
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: opTimeout}, base: base}
}

func (cl *client) close() { cl.hc.CloseIdleConnections() }

// post sends body and returns the status and the whole response body.
func (cl *client) post(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, cl.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := cl.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// register posts m's spec and records the model ID; fresh reports that
// the server had not seen the spec before.
func (cl *client) register(ctx context.Context, m *model) (fresh bool, err error) {
	status, body, err := cl.post(ctx, "/v1/models", m.spec)
	if err != nil {
		return false, fmt.Errorf("register %s: %w", m.label, err)
	}
	if status != http.StatusCreated && status != http.StatusOK {
		return false, fmt.Errorf("register %s: status %d: %s", m.label, status, truncate(body))
	}
	var rr service.RegisterResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		return false, fmt.Errorf("register %s: %w", m.label, err)
	}
	if rr.N != m.check.n {
		return false, fmt.Errorf("register %s: server built %d vertices, want %d", m.label, rr.N, m.check.n)
	}
	m.id = rr.ID
	return status == http.StatusCreated && !rr.Cached, nil
}

func truncate(b []byte) string {
	if len(b) > 200 {
		b = b[:200]
	}
	return string(bytes.TrimSpace(b))
}

// opRecord is what one op of the closed loop leaves behind.
type opRecord struct {
	tag      string
	ok       bool
	latency  time.Duration // client wall of the op's HTTP calls
	overhead time.Duration // draw request wall minus the server's elapsedMs
	samples  int
	bytes    int64 // draw response body
	// fail says why the op failed; wrong marks the failures that were
	// 200 responses whose content failed a check.
	fail  string
	wrong bool
}

// spot is a served draw kept for the bit-identity spot check.
type spot struct {
	m      *model
	resp   *service.SampleResponse
	chains []int
}

// doOp runs one op: an optional fresh registration, then the draw and
// its checks. rec, when non-nil, receives the op's spans.
func (cl *client) doOp(ctx context.Context, op opPlan, rec *Recorder, opID int) (opRecord, *service.SampleResponse) {
	r := opRecord{tag: op.tag}
	root := rec.Begin(opID, 0, "op")
	defer rec.End(root)
	start := time.Now()
	m := op.m
	if op.register {
		sp := rec.Begin(opID, root, "http.register")
		fresh, err := cl.register(ctx, m)
		rec.End(sp)
		if err == nil && !fresh {
			err = fmt.Errorf("register %s: spec was already registered", m.label)
		}
		if err != nil {
			r.latency = time.Since(start)
			r.fail = err.Error()
			return r, nil
		}
	}
	sp := rec.Begin(opID, root, "client.encode")
	body, err := json.Marshal(op.req)
	rec.End(sp)
	if err != nil {
		r.fail = err.Error()
		return r, nil
	}
	sp = rec.Begin(opID, root, "http.sample")
	drawStart := time.Now()
	status, data, err := cl.post(ctx, "/v1/models/"+m.id+"/sample", body)
	drawWall := time.Since(drawStart)
	r.latency = time.Since(start)
	rec.End(sp)
	if err == nil && status != http.StatusOK {
		err = fmt.Errorf("status %d: %s", status, truncate(data))
	}
	if err != nil {
		r.fail = fmt.Sprintf("draw %s/%s: %v", m.label, op.tag, err)
		return r, nil
	}
	r.bytes = int64(len(data))
	dec := rec.Begin(opID, root, "client.decode")
	var resp service.SampleResponse
	err = json.Unmarshal(data, &resp)
	rec.End(dec)
	if err != nil {
		r.fail, r.wrong = fmt.Sprintf("%s: undecodable 200 response: %v", m.label, err), true
		return r, nil
	}
	server := time.Duration(resp.ElapsedMS * 1e6)
	if rec != nil {
		rec.AddChild(sp, "server.draw", rec.spanEnd(sp), server)
	}
	r.overhead = drawWall - server
	chk := rec.Begin(opID, root, "client.check")
	err = m.check.checkResponse(op.req, &resp)
	rec.End(chk)
	if err != nil {
		r.fail, r.wrong = fmt.Sprintf("%s: %v", m.label, err), true
		return r, nil
	}
	r.ok = true
	r.samples = len(resp.Samples)
	return r, &resp
}

// phase is the outcome of one timed closed-loop phase.
type phase struct {
	recs  []opRecord
	wall  time.Duration
	spots []spot
}

func (p *phase) failed() int {
	n := 0
	for _, r := range p.recs {
		if !r.ok {
			n++
		}
	}
	return n
}

// wrong lists the ops whose 200 responses failed a check.
func (p *phase) wrong() []string {
	var out []string
	for _, r := range p.recs {
		if r.wrong {
			out = append(out, r.fail)
		}
	}
	return out
}

// spotsPerClient bounds the draws kept per client for the bit-identity
// check, which redraws them locally after the timing window.
const spotsPerClient = 2

// runPhase drives the closed loop for d and at least `least` ops (at most
// budget ops when budget > 0). opBase offsets op indices so two phases of
// one run never send the same op. rec, when non-nil, traces every op.
func runPhase(ctx context.Context, w *workload, base string, seed uint64, d time.Duration, least, budget, opBase int, rec *Recorder) *phase {
	var (
		done   atomic.Int64
		issued atomic.Int64
		mu     sync.Mutex
		wg     sync.WaitGroup
	)
	out := &phase{}
	start := time.Now()
	for c := 0; c < nClients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl := newClient(base)
			defer cl.close()
			var recs []opRecord
			var spots []spot
			for i := opBase; ctx.Err() == nil; i++ {
				elapsed := time.Since(start)
				if n := done.Load(); (elapsed >= d && n >= int64(least)) || elapsed >= maxPhase {
					break
				}
				if budget > 0 && issued.Add(1) > int64(budget) && done.Load() >= int64(least) {
					break
				}
				op := w.plan(c, i)
				r, resp := cl.doOp(ctx, op, rec, c<<32|i)
				done.Add(1)
				recs = append(recs, r)
				if r.ok && len(spots) < spotsPerClient && opHash(seed, c, i, 5)%8 == 0 {
					chains := []int{0}
					if k := len(resp.Samples); k > 1 {
						chains = append(chains, 1+int(opHash(seed, c, i, 6)%uint64(k-1)))
					}
					spots = append(spots, spot{m: op.m, resp: resp, chains: chains})
				}
			}
			mu.Lock()
			out.recs = append(out.recs, recs...)
			out.spots = append(out.spots, spots...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	return out
}

// verifySpots redraws the kept chains locally and reports the first
// mismatch.
func verifySpots(spots []spot) error {
	for _, s := range spots {
		for _, i := range s.chains {
			if err := s.m.local.verifyChain(s.resp, i); err != nil {
				return fmt.Errorf("%s: %w", s.m.label, err)
			}
		}
	}
	return nil
}

// setUp registers the workload's fixed models on a fresh fleet and runs
// one warm draw per (model, runtime), so compile, rounds:"auto" coupling
// and coordinator sessions are paid before the timed phase.
func setUp(ctx context.Context, w *workload, base string, seed uint64) error {
	cl := newClient(base)
	defer cl.close()
	for _, m := range w.fixed {
		if _, err := cl.register(ctx, m); err != nil {
			return err
		}
	}
	for j, d := range w.warm {
		op := opPlan{drawPlan: d}
		op.req.Seed = opHash(seed, -1, j, 1)
		r, _ := cl.doOp(ctx, op, nil, 0)
		if !r.ok {
			return fmt.Errorf("warm draw: %s", r.fail)
		}
	}
	return nil
}
