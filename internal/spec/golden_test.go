package spec

import (
	"testing"

	"locsample/internal/csp"
	"locsample/internal/graph"
	"locsample/internal/mrf"
)

// goldenSpecs are fixed workloads whose content addresses are pinned by
// TestHashGolden. Model IDs appear in client URLs and in every registry and
// cache key, so a codec change that moves any of them breaks clients.
func goldenSpecs(t testing.TB) []struct {
	name string
	spec *Spec
	hash string
} {
	dec := func(js string) *Spec {
		s, err := Decode([]byte(js))
		if err != nil {
			t.Fatalf("golden spec does not decode: %v\n%s", err, js)
		}
		return s
	}
	ising := mrf.Ising(graph.Grid(4, 5), 0.3, 0.125)
	floats := FromMRF(ising, "float-heavy")
	floats.Model.VertexActivities[0] = []float64{1e-7, 1e21}
	floats.Model.VertexActivities[1] = []float64{5e-324, 1.7976931348623157e308}
	floats.Model.VertexActivities[2] = []float64{0.1, 123456789.125}
	floats.Model.VertexActivities[3] = []float64{1e20, 9.999999999999999e-7}
	floats.Model.VertexActivities[4] = []float64{0, 1.0000000000000002}
	floats.Model.VertexActivities[5] = []float64{2.5e-8, 3e300}
	g := graph.Grid(64, 64)
	init := make([]int, g.N())
	for v := range init {
		init[v] = 1
	}
	wds, err := FromCSP(csp.WeightedDominatingSet(g, 1.5), g, init, 32, "wdomset-64")
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		spec *Spec
		hash string
	}{
		{"coloring", dec(`{"version":"locsample/v1","graph":{"family":"grid","rows":12,"cols":12},
			"model":{"kind":"coloring","q":12}}`),
			"sha256:159020b651bf70723681d03119624d26cc500b5bf2dd6900ebb74fddb7cfc4f9"},
		{"listcoloring", dec(`{"version":"locsample/v1","name":"lists","graph":{"family":"path","n":3},
			"model":{"kind":"listcoloring","q":3,"lists":[[0,1],[1,2],[0,2]]}}`),
			"sha256:6acb3d8d4c2e137dda6f98512129a9e847d400dc701fe5fc207ae6fe2ad59536"},
		{"hardcore", dec(`{"version":"locsample/v1","graph":{"family":"torus","rows":6,"cols":7},
			"model":{"kind":"hardcore","lambda":0.721,"shards":2}}`),
			"sha256:7a9665c9ad56033cd0a8dd54189363d1b1b02f604d496e510cebaf9b56083447"},
		{"independentset", dec(`{"version":"locsample/v1","graph":{"family":"hypercube","dim":4},
			"model":{"kind":"independentset","parallel":2}}`),
			"sha256:5ae435ba70c648cadb823f49c7322130111ac2819753ea8d006f00c57447e38b"},
		{"vertexcover", dec(`{"version":"locsample/v1","graph":{"family":"bipartite","a":3,"b":4},
			"model":{"kind":"vertexcover"}}`),
			"sha256:5cffd9eb2552e1a45c180cb4b7fde09b0964e94d16ca6f1121ddda61948085ef"},
		{"ising", dec(`{"version":"locsample/v1","graph":{"family":"gnp","n":20,"p":0.25,"seed":18446744073709551615},
			"model":{"kind":"ising","beta":1.4,"field":0.5e-3}}`),
			"sha256:984a6166e67236d7a3f3a4fb1674514e9188804db91cfab640a91ad346d038c9"},
		{"potts", dec(`{"version":"locsample/v1","graph":{"family":"regular","n":10,"degree":3,"seed":7},
			"model":{"kind":"potts","q":3,"beta":0.5}}`),
			"sha256:e09c8116765c72ae05927f1fe1ed445cf6d026471ed190ffbd3da5f15abb03b5"},
		{"mrf", dec(`{"version":"locsample/v1","graph":{"family":"tree","arity":2,"depth":3},
			"model":{"kind":"mrf","q":2,"edgeActivities":[[1,1,1,0]],"vertexActivities":[[1,0.30000000000000004]]}}`),
			"sha256:7be6284b327a1fed41c4c910ee4a5ccf415b2a3ef3374b717a349792df80b0d1"},
		{"csp", dec(`{"version":"locsample/v1","name":"café <&> \"q\"","graph":{"family":"star","n":5},
			"model":{"kind":"csp","q":2,"rounds":20,"init":[1,0,0,0,0],
				"constraints":[{"kind":"cover","scope":[0,1,2]},{"kind":"notallequal","scope":[3,4]},
					{"kind":"table","scope":[3,4],"table":[0,1,1,0.5]}]}}`),
			"sha256:9e74bb9f232c909c30935dfb134c38830fc844bc1cc6bf68d78e544595e84b5a"},
		{"edges", dec(`{"version":"locsample/v1","graph":{"n":4,"edges":[[0,1],[1,2],[2,3],[0,1]]},
			"model":{"kind":"coloring","q":5}}`),
			"sha256:25f89fd05bc88a60743bc9e901a8cf84763581b2b5cd8b1b9e5e63bf2174eae2"},
		{"float-heavy-mrf", floats,
			"sha256:c9afb79d9e8cefab138d2418e89e23d491a2c2d3a0e58b415dcb3b26dd7340c7"},
		{"wdomset-64", wds,
			"sha256:bf831030d555b4dad138739c9b2096a0589d2c89ef7b470ce1ee6cf8f0f03b30"},
	}
}

func TestHashGolden(t *testing.T) {
	for _, c := range goldenSpecs(t) {
		h, err := Hash(c.spec)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if h != c.hash {
			t.Errorf("%s: hash %s, want %s", c.name, h, c.hash)
		}
	}
}
