package partition

import (
	"reflect"
	"testing"

	"locsample/internal/mrf"
)

// TestCentralizedBandIsOneShardPlan pins the degenerate band: a model's
// centralized band equals, field for field, shard 0 of a one-shard plan,
// for MRF and CSP models alike. The centralized kernels run on the former
// and the sharded runtime on the latter, so this is what makes a one-shard
// draw the centralized draw by construction.
func TestCentralizedBandIsOneShardPlan(t *testing.T) {
	for name, g := range testGraphs(t) {
		for _, m := range []*mrf.MRF{mrf.Coloring(g, g.MaxDeg()+2), mrf.Ising(g, 0.4, 0.7)} {
			for _, strat := range strategies {
				p, err := Build(g, 1, strat, 3)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				sameFields(t, name, *m.Band(), p.Shards[0].Band)
			}
		}
	}
	for name, c := range testCSPs(t) {
		for _, strat := range strategies {
			p, err := BuildCSP(c, 1, strat, 3)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sameFields(t, name, *c.Band(), p.Shards[0].Band)
		}
	}
}

// sameFields fails on the first field where the two bands differ.
func sameFields(t *testing.T, name string, want, got any) {
	t.Helper()
	wv, gv := reflect.ValueOf(want), reflect.ValueOf(got)
	for i := 0; i < wv.NumField(); i++ {
		if !reflect.DeepEqual(wv.Field(i).Interface(), gv.Field(i).Interface()) {
			t.Fatalf("%s: centralized band and one-shard plan differ in %s", name, wv.Type().Field(i).Name)
		}
	}
}
