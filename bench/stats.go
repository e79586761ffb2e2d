package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// quantile returns the q-quantile (nearest rank) of an ascending slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// latency summarises per-operation samples (any unit). A percentile is
// trusted with at least ten samples beyond it: P95 needs 200 samples,
// which every workload's timed window collects, so it is the tail the
// end-to-end metric reports; P99 needs 1000. N says what was there.
type latency struct {
	N   int     `json:"samples"`
	P50 float64 `json:"p50"`
	P95 float64 `json:"p95"`
	P99 float64 `json:"p99"`
}

// summarize sorts samples in place.
func summarize(samples []float64) latency {
	sort.Float64s(samples)
	return latency{N: len(samples), P50: quantile(samples, 0.5),
		P95: quantile(samples, 0.95), P99: quantile(samples, 0.99)}
}

// ratio is a/b, or 0 when b is 0: a per-layer ratio reads 0 on a
// workload that never exercises its denominator.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
