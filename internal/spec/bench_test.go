package spec

import (
	"testing"

	"locsample/internal/csp"
	"locsample/internal/graph"
)

// wdomsetSpec is the 64² weighted dominating set shipped as explicit table
// constraints: 4096 constraints and about 127k floats, 0.63 MB encoded.
func wdomsetSpec(tb testing.TB) *Spec {
	g := graph.Grid(64, 64)
	init := make([]int, g.N())
	for v := range init {
		init[v] = 1
	}
	s, err := FromCSP(csp.WeightedDominatingSet(g, 1.5), g, init, 32, "wdomset-64")
	if err != nil {
		tb.Fatal(err)
	}
	return s
}

func BenchmarkDecodeWDomset(b *testing.B) {
	data, err := Encode(wdomsetSpec(b))
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeWDomset(b *testing.B) {
	s := wdomsetSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Encode(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHashWDomset(b *testing.B) {
	s := wdomsetSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Hash(s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildWDomset(b *testing.B) {
	s := wdomsetSpec(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(s); err != nil {
			b.Fatal(err)
		}
	}
}
