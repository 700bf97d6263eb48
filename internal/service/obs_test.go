package service

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"locsample"
)

func getBody(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := io.Copy(&buf, resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.String()
}

// TestTracedDrawOverHTTP drives the full tracing loop through the HTTP
// surface: a sample request with trace:true returns a trace ID, the
// recorded trace is fetchable as Chrome trace-event JSON from
// /debug/trace/{id}, and the traced draw is bit-identical to the
// untraced one at the same seed.
func TestTracedDrawOverHTTP(t *testing.T) {
	ts, _ := newTestServer(t)

	var reg RegisterResponse
	if code, body := postJSON(t, ts.URL+"/v1/models", coloringSpec, &reg); code != http.StatusCreated {
		t.Fatalf("register: code %d body %s", code, body)
	}

	const seed = 4242
	var bare SampleResponse
	if code, body := postJSON(t, ts.URL+"/v1/models/"+reg.ID+"/sample",
		fmt.Sprintf(`{"seed":%d}`, seed), &bare); code != http.StatusOK {
		t.Fatalf("bare sample: code %d body %s", code, body)
	}
	if bare.TraceID != "" {
		t.Fatalf("untraced draw carries trace ID %q", bare.TraceID)
	}

	var traced SampleResponse
	if code, body := postJSON(t, ts.URL+"/v1/models/"+reg.ID+"/sample",
		fmt.Sprintf(`{"seed":%d,"trace":true}`, seed), &traced); code != http.StatusOK {
		t.Fatalf("traced sample: code %d body %s", code, body)
	}
	if len(traced.TraceID) != 16 {
		t.Fatalf("traced draw returned ID %q, want 16 hex chars", traced.TraceID)
	}
	if !reflect.DeepEqual(bare.Samples, traced.Samples) {
		t.Fatal("traced draw diverged from untraced draw at the same seed")
	}

	code, body := getBody(t, ts.URL+"/debug/trace/"+traced.TraceID)
	if code != http.StatusOK {
		t.Fatalf("/debug/trace/{id}: code %d body %s", code, body)
	}
	for _, want := range []string{`"traceEvents"`, "round.compute", `"draw"`} {
		if !strings.Contains(body, want) {
			t.Fatalf("trace JSON missing %s:\n%.400s", want, body)
		}
	}

	code, body = getBody(t, ts.URL+"/debug/traces")
	if code != http.StatusOK || !strings.Contains(body, traced.TraceID) {
		t.Fatalf("/debug/traces missing %s: code %d body %s", traced.TraceID, code, body)
	}

	if code, _ := getBody(t, ts.URL+"/debug/trace/ffffffffffffffff"); code != http.StatusNotFound {
		t.Fatalf("unknown trace: code %d", code)
	}

	// Tracing is single-draw only: a k>1 traced request is rejected.
	if code, _ := postJSON(t, ts.URL+"/v1/models/"+reg.ID+"/sample",
		`{"k":3,"trace":true}`, nil); code != http.StatusBadRequest {
		t.Fatal("k>1 traced draw not rejected")
	}
}

// TestMetricsEndpoint scrapes GET /metrics after serving traffic and
// checks the registry- and model-level series are published in
// Prometheus text format.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newTestServer(t)

	var reg RegisterResponse
	if code, body := postJSON(t, ts.URL+"/v1/models", coloringSpec, &reg); code != http.StatusCreated {
		t.Fatalf("register: code %d body %s", code, body)
	}
	for i := 0; i < 3; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/models/"+reg.ID+"/sample",
			fmt.Sprintf(`{"k":2,"seed":%d}`, i), nil); code != http.StatusOK {
			t.Fatalf("draw %d: code %d body %s", i, code, body)
		}
	}
	if code, _ := postJSON(t, ts.URL+"/v1/models/"+reg.ID+"/sample",
		`{"seed":9,"trace":true}`, nil); code != http.StatusOK {
		t.Fatal("traced draw failed")
	}

	code, body := getBody(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics: code %d", code)
	}
	model := fmt.Sprintf("model=%q", reg.ID)
	for _, want := range []string{
		"# TYPE locserved_requests_total counter",
		fmt.Sprintf("locserved_requests_total{%s} 4", model),
		fmt.Sprintf("locserved_samples_total{%s} 7", model),
		fmt.Sprintf("locserved_draw_seconds_count{%s} 4", model),
		fmt.Sprintf("locserved_errors_total{%s} 0", model),
		"locserved_models 1",
		"locserved_traced_draws_total 1",
		"locserved_compiles_total",
		"locserved_inflight_draws 0",
		"# TYPE locserved_draw_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestModelLatencyStats pins the /statsz latency fix: per-model stats
// report a draw count, mean, and ordered quantiles from the latency
// histogram.
func TestModelLatencyStats(t *testing.T) {
	reg := NewRegistry(Config{})
	m, _, err := reg.Register([]byte(coloringSpec))
	if err != nil {
		t.Fatal(err)
	}
	const draws = 6
	for i := 0; i < draws; i++ {
		if _, err := reg.Draw(m, DrawOptions{K: 1, Seed: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	st := m.Stats()
	if st.DrawCount != draws {
		t.Fatalf("DrawCount = %d, want %d", st.DrawCount, draws)
	}
	if st.LatencyMeanMS <= 0 {
		t.Fatalf("LatencyMeanMS = %v", st.LatencyMeanMS)
	}
	if st.LatencyP50MS <= 0 || st.LatencyP50MS > st.LatencyP95MS || st.LatencyP95MS > st.LatencyP99MS {
		t.Fatalf("quantiles out of order: p50=%v p95=%v p99=%v",
			st.LatencyP50MS, st.LatencyP95MS, st.LatencyP99MS)
	}
}

// TestWorkerDrain covers the graceful-shutdown contract: a draining
// worker rejects new jobs but keeps serving draws on jobs it already
// hosts, and ActiveJobs tracks the hosted count.
func TestWorkerDrain(t *testing.T) {
	w, err := NewWorker("127.0.0.1:0", WorkerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()

	g := locsample.GridGraph(6, 6)
	m := locsample.NewColoring(g, 3*g.MaxDeg())
	s, err := locsample.NewSampler(m,
		locsample.WithRounds(8), locsample.WithSeed(1),
		locsample.WithShards(2), locsample.WithRemoteWorkers(w.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SampleNFrom(1, 1); err != nil {
		t.Fatal(err)
	}
	if got := w.ActiveJobs(); got != 1 {
		t.Fatalf("ActiveJobs = %d, want 1", got)
	}

	w.Drain()
	if !w.Draining() {
		t.Fatal("Draining() false after Drain")
	}
	// The existing job keeps serving.
	if _, err := s.SampleNFrom(1, 1); err != nil {
		t.Fatalf("draw on existing job after drain: %v", err)
	}
	// New jobs are rejected: the coordinator connects lazily, so the
	// rejection surfaces on the first draw.
	s2, err := locsample.NewSampler(m,
		locsample.WithRounds(8), locsample.WithSeed(2),
		locsample.WithShards(2), locsample.WithRemoteWorkers(w.Addr()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.SampleNFrom(2, 1); err == nil {
		t.Fatal("draining worker accepted a new job")
	} else if !strings.Contains(err.Error(), "draining") {
		t.Fatalf("rejection error %q does not mention draining", err)
	}

	s.Close()
	deadline := time.Now().Add(2 * time.Second)
	for w.ActiveJobs() > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := w.ActiveJobs(); got != 0 {
		t.Fatalf("ActiveJobs = %d after teardown, want 0", got)
	}
}

// TestRegisterSecondsSeries checks that registrations are timed in
// locserved_register_seconds, split by whether the spec was already
// registered, and that failed registrations are not counted.
func TestRegisterSecondsSeries(t *testing.T) {
	r := NewRegistry(Config{})
	for i := 0; i < 3; i++ {
		if _, _, err := r.Register([]byte(coloringSpec)); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := r.Register([]byte(`{"version":"locsample/v0"}`)); err == nil {
		t.Fatal("invalid spec registered")
	}
	var buf bytes.Buffer
	if err := r.Obs().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE locserved_register_seconds histogram",
		`locserved_register_seconds_count{cached="false"} 1` + "\n",
		`locserved_register_seconds_count{cached="true"} 2` + "\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
