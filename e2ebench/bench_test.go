package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"locsample/internal/service"
)

func TestPercentileCountsFailuresAsInfinite(t *testing.T) {
	inf := math.Inf(1)
	lat := []float64{5, 1, inf, 3, 2, 4, 6, 7, 8, inf}
	if got := percentile(lat, 0.5); got != 5 {
		t.Errorf("p50 = %v, want 5", got)
	}
	if got := percentile(lat, 0.8); got != 8 {
		t.Errorf("p80 = %v, want 8", got)
	}
	if got := percentile(lat, 0.9); !math.IsInf(got, 1) {
		t.Errorf("p90 = %v, want +Inf: the rank lands on a failed op", got)
	}
	// Fixing one failure can only lower a percentile.
	fixed := append([]float64(nil), lat...)
	fixed[2] = 9
	if got := percentile(fixed, 0.9); got != 9 {
		t.Errorf("p90 after a fix = %v, want 9", got)
	}
	if got := finiteOr(percentile(lat, 0.9), 60000); got != 60000 {
		t.Errorf("reported p90 = %v, want the 60000 ms cap", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestSelfTimeWithNestedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		// Two overlapping children cover [10,50): 40 ms.
		{ID: 2, Parent: 1, Name: "http", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "decode", Start: 30 * ms, End: 50 * ms},
		// A grandchild reduces its parent, not the root.
		{ID: 4, Parent: 2, Name: "server", Start: 15 * ms, End: 35 * ms},
		// A child reaching past its parent counts only inside it.
		{ID: 5, Parent: 1, Name: "check", Start: 90 * ms, End: 120 * ms},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 50 * ms, 2: 10 * ms, 3: 20 * ms, 4: 20 * ms, 5: 30 * ms}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d self time = %v, want %v", id, self[id], w)
		}
	}
}

func TestRecorderSpans(t *testing.T) {
	var nilRec *Recorder
	if id := nilRec.Begin(1, 0, "op"); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	nilRec.End(0)
	r := newRecorder()
	root := r.Begin(7, 0, "op")
	child := r.Begin(7, root, "http")
	r.End(child)
	r.AddChild(child, "server", r.spanEnd(child), time.Hour)
	r.End(root)
	spans := r.Spans()
	if len(spans) != 3 {
		t.Fatalf("%d spans, want 3", len(spans))
	}
	srv := spans[2]
	if srv.Parent != child || srv.Op != 7 || srv.Start != spans[child-1].Start || srv.End != spans[child-1].End {
		t.Errorf("server span %+v not clipped to its parent %+v", srv, spans[child-1])
	}
}

func TestPromDelta(t *testing.T) {
	read := func(name string) promSnapshot {
		f, err := os.Open("testdata/" + name)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		snap, err := parseProm(f)
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	// Captured from lserved: one 8×8 coloring registered, then three k=16
	// draws and one rounds:"auto" draw.
	d := promDelta{read("metrics_before.txt"), read("metrics_after.txt")}
	for name, want := range map[string]float64{
		"locserved_compiles_total":            1,
		"locserved_cache_misses_total":        1,
		"locserved_cache_hits_total":          3,
		"locserved_compile_seconds_count":     1,
		"locserved_samples_total":             49,
		"locserved_soa_chains_total":          48,
		"locserved_degraded_draws_total":      0,
		"locsample_worker_errors_total":       0,
		"locsample_worker_replacements_total": 0,
	} {
		if got := d.get(name); got != want {
			t.Errorf("delta %s = %v, want %v", name, got, want)
		}
	}
	if got := d.get("locserved_compile_seconds_sum"); math.Abs(got-(0.000430769-4.8271000000000006e-05)) > 1e-12 {
		t.Errorf("compile seconds delta = %v", got)
	}
	// A metric name that prefixes another must not absorb it.
	if got := d.after.sum("locserved_compile"); got != 0 {
		t.Errorf("sum of a name prefix = %v, want 0", got)
	}
	snap, err := parseProm(strings.NewReader("x{a=\"b c\"} 2 1700000000\n# HELP y\ny 3\n"))
	if err != nil || snap.sum("x") != 2 || snap.sum("y") != 3 {
		t.Errorf("label value with a space or a timestamp misparsed: %v, %v", snap, err)
	}
	if _, err := parseProm(strings.NewReader("x{a=\"b\" 2\n")); err == nil {
		t.Error("unterminated label set accepted")
	}
}

func TestChecksRejectBadSamples(t *testing.T) {
	const side = 4
	col := coloringCheck(side, side, 3)
	good := make([]int, side*side)
	for r := 0; r < side; r++ {
		for c := 0; c < side; c++ {
			good[r*side+c] = (r + c) % 2
		}
	}
	if err := col.check(good); err != nil {
		t.Fatalf("checkerboard coloring rejected: %v", err)
	}
	bad := append([]int(nil), good...)
	bad[5] = bad[6]
	if err := col.check(bad); err == nil || !strings.Contains(err.Error(), "improper") {
		t.Errorf("corrupted coloring: err = %v", err)
	}
	bad = append([]int(nil), good...)
	bad[0] = 3
	if err := col.check(bad); err == nil {
		t.Error("value outside [0,q) accepted")
	}
	if err := col.check(good[1:]); err == nil {
		t.Error("short sample accepted")
	}

	dom := domsetCheck(side, side)
	set := make([]int, side*side)
	for _, v := range []int{1, 7, 8, 14} { // dominates the 4×4 grid
		set[v] = 1
	}
	if err := dom.check(set); err != nil {
		t.Fatalf("dominating set rejected: %v", err)
	}
	set[14] = 0 // 14 dominated 10, 13, 14 and 15; 15 is now uncovered
	if err := dom.check(set); err == nil || !strings.Contains(err.Error(), "not a dominating set") {
		t.Errorf("non-dominating set: err = %v", err)
	}

	hc := &modelCheck{kind: "hardcore", n: side * side, q: 2, edges: gridEdges(side, side)}
	occ := make([]int, side*side)
	occ[0], occ[2] = 1, 1
	if err := hc.check(occ); err != nil {
		t.Fatalf("independent set rejected: %v", err)
	}
	occ[1] = 1
	if err := hc.check(occ); err == nil {
		t.Error("adjacent occupied vertices accepted")
	}
}

func TestChecksRejectWrongSeedSample(t *testing.T) {
	m := newModel("coloring", coloringSpec(6, 6, 16, "wrong-seed"), coloringCheck(6, 6, 16))
	const seed, k, rounds = 42, 2, 30
	resp := &service.SampleResponse{Seed: seed, K: k, Rounds: rounds}
	for i := 0; i < k; i++ {
		x, err := m.local.chain(seed, i, rounds)
		if err != nil {
			t.Fatal(err)
		}
		resp.Samples = append(resp.Samples, x)
	}
	req := sampleReq{K: k, Seed: seed}
	if err := m.check.checkResponse(req, resp); err != nil {
		t.Fatalf("valid response rejected: %v", err)
	}
	for i := 0; i < k; i++ {
		if err := m.local.verifyChain(resp, i); err != nil {
			t.Fatalf("chain %d: %v", i, err)
		}
	}
	// A proper coloring drawn at another seed passes the constraint check
	// but not the bit-identity check.
	other, err := m.local.chain(seed+1, 1, rounds)
	if err != nil {
		t.Fatal(err)
	}
	resp.Samples[1] = other
	if err := m.check.checkResponse(req, resp); err != nil {
		t.Fatalf("proper coloring rejected: %v", err)
	}
	if err := m.local.verifyChain(resp, 1); err == nil {
		t.Error("sample from the wrong seed passed the bit-identity check")
	}
	if err := m.check.checkResponse(sampleReq{K: k, Seed: seed + 1}, resp); err == nil {
		t.Error("response echoing another seed accepted")
	}
	if err := m.check.checkResponse(sampleReq{K: k + 1, Seed: seed}, resp); err == nil {
		t.Error("response with too few samples accepted")
	}
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var b struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		list  []entry
		units map[string]string
	}{{b.EndToEnd, endToEndUnits}, {b.PerLayer, perLayerUnits}} {
		if len(c.list) != len(c.units) {
			t.Errorf("BENCHMARK.json lists %d metrics, the benchmark emits %d", len(c.list), len(c.units))
		}
		for _, e := range c.list {
			if u, ok := c.units[e.Name]; !ok || u != e.Unit {
				t.Errorf("metric %s: BENCHMARK.json unit %q, emitted unit %q", e.Name, e.Unit, u)
			}
		}
	}
}
