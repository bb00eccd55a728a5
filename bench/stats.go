package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a timing may be reported at, lowest
// first. A percentile is only reported when at least minBeyond samples lie
// beyond it, so a tail number never rests on one or two outliers.
var tailLadder = []float64{50, 75, 90, 95, 99, 99.9}

const minBeyond = 10

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of ascending xs by linear
// interpolation between order statistics; 0 for an empty slice.
func quantile(asc []float64, q float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	pos := q * float64(len(asc)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return asc[lo] + (asc[hi]-asc[lo])*(pos-float64(lo))
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 { return quantile(sorted(xs), 0.5) }

// supportedPercentile returns the highest ladder percentile not above want
// that still has at least minBeyond of the n samples beyond it. With too few
// samples for any tail it returns 50.
func supportedPercentile(n int, want float64) float64 {
	best := 50.0
	for _, p := range tailLadder {
		if p > want {
			break
		}
		if float64(n)*(100-p) >= minBeyond*100 {
			best = p
		}
	}
	return best
}

// tail reports xs at the highest supported percentile not above want: the
// value, the percentile actually used, and the sample count.
func tail(xs []float64, want float64) (value, used float64, n int) {
	n = len(xs)
	used = supportedPercentile(n, want)
	return quantile(sorted(xs), used/100), used, n
}

// quartiles mirrors Python's statistics.quantiles(values, n=4) (exclusive
// method): the cut points the acceptance rule's spread is defined on.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		v := quantile(asc, 0.5)
		return v, v, v
	}
	cut := func(k int) float64 {
		pos := float64(k) * float64(n+1) / 4 // 1-based position
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return asc[j-1] + (asc[j]-asc[j-1])*frac
	}
	return cut(1), cut(2), cut(3)
}
