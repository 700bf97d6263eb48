package service

import (
	"testing"

	"locsample/internal/transport"
)

// FuzzWorkerBuildJob feeds buildJob arbitrary job messages: a worker
// treats coordinator-supplied specs and plan fields as untrusted input, so
// every malformed job must come back as an error, never a panic. Jobs that
// do build are closed again; building one dials nothing.
func FuzzWorkerBuildJob(f *testing.F) {
	w := &Worker{cfg: WorkerConfig{}.withDefaults(), metrics: newWorkerMetrics(nil)}
	coloring := []byte(`{"version":"locsample/v1","graph":{"family":"grid","rows":3,"cols":3},"model":{"kind":"coloring","q":5}}`)
	domset := []byte(`{"version":"locsample/v1","graph":{"family":"cycle","n":6},"model":{"kind":"csp","q":2,"rounds":4,
		"constraints":[{"kind":"cover","scope":[5,0,1]},{"kind":"cover","scope":[0,1,2]},{"kind":"cover","scope":[1,2,3]},
			{"kind":"cover","scope":[2,3,4]},{"kind":"cover","scope":[3,4,5]},{"kind":"cover","scope":[4,5,0]}]}}`)
	f.Add(coloring, "mrf", "lubyglauber", 2, "range", uint64(7), []byte{0, 1, 2, 0, 1, 2, 0, 1, 2}, uint8(2), 1)
	f.Add(coloring, "mrf", "localmetropolis", 3, "bfs", uint64(1), []byte{0, 1, 2, 0, 1, 2, 0, 1, 2}, uint8(3), 0)
	f.Add(domset, "csp", "lubyglauber", 2, "bfs", uint64(3), []byte{1, 1, 1, 1, 1, 1}, uint8(2), 0)
	f.Add(domset, "csp", "", 6, "range", uint64(0), []byte{1, 1, 1, 1, 1, 1}, uint8(1), 0)
	f.Add(coloring, "mrf", "glauber", 1<<40, "range", uint64(0), []byte{0}, uint8(2), 0)
	f.Add(domset, "mrf", "lubyglauber", 2, "range", uint64(0), []byte{0xff, 1, 1, 1, 1, 9}, uint8(2), 0)
	f.Add([]byte(`{`), "csp", "x", -1, "", uint64(0), []byte(nil), uint8(0), -1)
	f.Fuzz(func(t *testing.T, spec []byte, kind, alg string, shards int, strategy string,
		planSeed uint64, init []byte, workers uint8, self int) {
		job := &transport.JobMsg{
			Proto:     transport.ControlProtoVersion,
			JobID:     1,
			Kind:      kind,
			Spec:      spec,
			Algorithm: alg,
			Shards:    shards,
			Strategy:  strategy,
			PlanSeed:  planSeed,
			Self:      self,
			Workers:   make([]string, workers%9),
		}
		for i := range job.Workers {
			job.Workers[i] = "127.0.0.1:1"
		}
		for _, b := range init {
			job.Init = append(job.Init, int(int8(b)))
		}
		js, err := w.buildJob(job)
		if err == nil {
			js.eng.Close()
		}
	})
}
