package main

import (
	"math"
	"sort"
)

// quartiles returns the three quartiles of v as Python's
// statistics.quantiles(v, n=4) gives them (the exclusive method): the
// acceptance rule for run-to-run spread is stated in those terms, so the
// report, the result files and -compare all use this one definition.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return math.NaN(), math.NaN(), math.NaN()
	}
	var out [3]float64
	for i := 1; i < 4; i++ {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		out[i-1] = (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return out[0], out[1], out[2]
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// percentile interpolates linearly in an ascending slice; it is for the
// latency distributions (p50, p99, ...), which are sorted once and hold up
// to millions of samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// topPercentile is the highest of p99, p99.9, ... that still has at least
// ten samples beyond it (0 when even p99 does not).
func topPercentile(n int) float64 {
	top := 0.0
	for _, p := range []float64{0.99, 0.999, 0.9999, 0.99999} {
		if float64(n)*(1-p) >= 10 {
			top = p
		}
	}
	return top
}
