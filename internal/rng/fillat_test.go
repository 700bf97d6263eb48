package rng

import "testing"

// TestFillFloat64sAtMatchesPRF: the ID-list fill the band kernels use for
// β priorities reproduces PRFFloat64 at every listed (non-contiguous) ID.
func TestFillFloat64sAtMatchesPRF(t *testing.T) {
	s := New(23)
	for trial := 0; trial < 100; trial++ {
		seed, tag, round := s.Uint64(), s.Uint64(), s.Uint64()%64
		ids := make([]int32, 1+s.Intn(257))
		for i := range ids {
			ids[i] = int32(s.Intn(1 << 20))
		}
		dst := make([]float64, len(ids))
		Key(seed, tag, round).FillFloat64sAt(dst, ids)
		for i, got := range dst {
			if want := PRFFloat64(seed, tag, uint64(ids[i]), round); got != want {
				t.Fatalf("FillFloat64sAt[%d] (id %d) = %v, PRFFloat64 = %v", i, ids[i], got, want)
			}
		}
	}
}
