package main

import (
	"math"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's
// slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the middle two for an
// even count); 0 for an empty sample.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points that split xs into four equal
// groups, computed exactly as Python's statistics.quantiles(xs, n=4)
// does with its default "exclusive" method, so compare mode and the
// acceptance arithmetic agree to the last digit. It needs at least two
// values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

// tailBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const tailBeyond = 10

// tail reports the 99th percentile of xs when at least ten samples lie
// beyond it, and otherwise the highest percentile that has ten beyond
// it. q is the quantile actually reported. With ten samples or fewer no
// percentile qualifies; tail then reports the maximum with ok = false.
func tail(xs []float64) (v, q float64, ok bool) {
	n := len(xs)
	if n == 0 {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	if n <= tailBeyond {
		return s[n-1], 1, false
	}
	k := rankIndex(n, 0.99)
	if limit := n - 1 - tailBeyond; k > limit {
		k = limit
		return s[k], float64(k+1) / float64(n), true
	}
	return s[k], 0.99, true
}

// rankIndex is the nearest-rank index of the q-quantile in a sorted
// sample of n: the smallest index whose rank covers q.
func rankIndex(n int, q float64) int {
	k := int(math.Ceil(q*float64(n))) - 1
	if k < 0 {
		k = 0
	}
	return k
}

// percentile is the nearest-rank q-quantile of xs; 0 for an empty
// sample.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rankIndex(len(xs), q)]
}

// bucket is one cumulative histogram bucket: count observations <= le.
type bucket struct {
	le    float64
	count float64
}

// histQuantile estimates the q-quantile of a cumulative histogram the
// way Prometheus's histogram_quantile does: find the bucket holding the
// rank and interpolate linearly inside it. Observations above the last
// finite bound report that bound. ok is false for an empty histogram.
func histQuantile(buckets []bucket, total, q float64) (float64, bool) {
	if total <= 0 || len(buckets) == 0 {
		return 0, false
	}
	rank := q * total
	lower, below := 0.0, 0.0
	for _, b := range buckets {
		if b.count >= rank {
			inBucket := b.count - below
			if inBucket <= 0 {
				return b.le, true
			}
			return lower + (b.le-lower)*(rank-below)/inBucket, true
		}
		lower, below = b.le, b.count
	}
	return buckets[len(buckets)-1].le, true
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func minOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
