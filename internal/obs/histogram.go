package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: powers of two from 2^histMinShift ns (~1µs)
// to 2^histMaxShift ns (~137s), plus an overflow (+Inf) bucket. Log
// spacing keeps the bucket count small (28) while resolving everything
// from a cache-hit memcpy to a backend outage; the scheme is the same
// power-of-two binning HdrHistogram-style recorders use.
const (
	histMinShift = 10 // first bucket upper bound: 2^10 ns = 1.024µs
	histMaxShift = 37 // last finite bound: 2^37 ns ≈ 137.4s
	histBuckets  = histMaxShift - histMinShift + 1
)

// bucketFor returns the index of the bucket whose upper bound is the
// smallest power of two >= ns, clamped to the finite range; values above
// the last finite bound land in the overflow bucket (histBuckets).
func bucketFor(ns int64) int {
	if ns <= 1<<histMinShift {
		return 0
	}
	// smallest s with 2^s >= ns
	s := bits.Len64(uint64(ns - 1))
	if s > histMaxShift {
		return histBuckets
	}
	return s - histMinShift
}

// bucketBound returns the upper bound (in nanoseconds) of finite bucket i.
func bucketBound(i int) int64 { return 1 << (histMinShift + i) }

// Histogram is a fixed-geometry latency histogram. Observations are in
// nanoseconds; exposition converts bounds to seconds. Observe is one
// atomic add per call plus two for the sum/count, safe for concurrent
// use. The zero and nil Histograms are inert.
type Histogram struct {
	off    bool
	counts [histBuckets + 1]atomic.Int64 // per-bucket (non-cumulative); last is overflow
	count  atomic.Int64
	sumNs  atomic.Int64
}

// Observe records one latency in nanoseconds. Negative values clamp to 0.
func (h *Histogram) Observe(ns int64) {
	if h == nil || h.off {
		return
	}
	if ns < 0 {
		ns = 0
	}
	h.counts[bucketFor(ns)].Add(1)
	h.count.Add(1)
	h.sumNs.Add(ns)
}

// HistSnapshot is a point-in-time copy of a histogram. Buckets are
// non-cumulative; Bounds[i] is the upper bound of Buckets[i] in
// nanoseconds, and Buckets[len(Bounds)] (the last element) is the
// overflow bucket.
type HistSnapshot struct {
	Buckets [histBuckets + 1]int64
	Count   int64
	SumNs   int64
}

// Snapshot copies the histogram counters. Concurrent observers may land
// between bucket reads, so the sum of Buckets can momentarily trail
// Count by in-flight observations; exposition re-derives count from the
// buckets to keep the output internally consistent.
func (h *Histogram) Snapshot() HistSnapshot {
	var s HistSnapshot
	if h == nil {
		return s
	}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
	}
	s.Count = h.count.Load()
	s.SumNs = h.sumNs.Load()
	return s
}

// Quantile estimates the q-th quantile (0 <= q <= 1) in nanoseconds by
// walking the cumulative distribution and interpolating linearly inside
// the winning bucket (between its lower and upper bound; the overflow
// bucket reports the last finite bound). Returns 0 on an empty histogram.
func (s HistSnapshot) Quantile(q float64) int64 {
	total := int64(0)
	for _, c := range s.Buckets {
		total += c
	}
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		if float64(cum+c) >= rank {
			if i >= histBuckets {
				return bucketBound(histBuckets - 1)
			}
			lo := int64(0)
			if i > 0 {
				lo = bucketBound(i - 1)
			}
			hi := bucketBound(i)
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lo + int64(frac*float64(hi-lo))
		}
		cum += c
	}
	return bucketBound(histBuckets - 1)
}

// P50 is Quantile(0.50), in nanoseconds.
func (s HistSnapshot) P50() int64 { return s.Quantile(0.50) }

// P99 is Quantile(0.99), in nanoseconds.
func (s HistSnapshot) P99() int64 { return s.Quantile(0.99) }
