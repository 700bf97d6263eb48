package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of vals.
// Failed operations enter as +Inf, so a percentile whose rank lands among
// them is +Inf: fixing a failure can only lower a percentile. An empty
// input yields NaN.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// median is the midpoint median of finite repeat measurements (set-up
// times, probe repetitions); an empty input yields NaN.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// finiteOr replaces +Inf, which JSON cannot carry, with capValue — the
// longest latency a client can observe (its request timeout) — and NaN,
// from an empty sample, with 0.
func finiteOr(v, capValue float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return capValue
	case math.IsNaN(v):
		return 0
	}
	return v
}
