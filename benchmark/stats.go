package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear interpolation
// between order statistics; NaN for an empty sample. xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quartiles returns the first quartile, the median and the third quartile.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	return quantile(xs, 0.25), quantile(xs, 0.5), quantile(xs, 0.75)
}

// midmean is the mean of the middle half of xs (the interquartile mean);
// NaN for fewer than two values. The latencies of one arm in one round are
// often two-humped (a job either hit a rollback or did not, either waited
// for a core or did not), and the median of a two-humped sample jumps
// between the humps from round to round; the midmean moves smoothly with
// the humps' weights and still ignores both tails.
func midmean(xs []float64) float64 {
	if len(xs) < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := len(s)/4, len(s)-len(s)/4
	sum := 0.0
	for _, x := range s[lo:hi] {
		sum += x
	}
	return sum / float64(hi-lo)
}

// pairedRatio is the median over rounds of num[r]/den[r]: each round's two
// arms ran back to back, so a slow phase of the host scales both and
// cancels in the ratio. Rounds in which either side is missing (NaN) or the
// denominator is not positive are left out.
func pairedRatio(num, den []float64) float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	ratios := make([]float64, 0, n)
	for r := 0; r < n; r++ {
		if math.IsNaN(num[r]) || math.IsNaN(den[r]) || den[r] <= 0 {
			continue
		}
		ratios = append(ratios, num[r]/den[r])
	}
	return median(ratios)
}

// spread is the distance between the first and the third quartile as a
// share of the median, computed as the acceptance check computes it
// (exclusive quartiles, as Python's statistics.quantiles(xs, n=4)).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	med := at(2)
	if math.Abs(med) <= 0 {
		return math.NaN()
	}
	return (at(3) - at(1)) / math.Abs(med)
}
