package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestQuantiles(t *testing.T) {
	xs := []float64{9, 1, 5, 3, 7} // sorted: 1 3 5 7 9
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9}, {0.9, 8.2}, {0.125, 2},
	} {
		if got := quantile(xs, c.q); !near(got, c.want) {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if xs[0] != 9 {
		t.Error("quantile sorted its argument in place")
	}
	if got := median([]float64{4, 2}); !near(got, 3) {
		t.Errorf("median of two = %v, want 3", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
	q1, q2, q3 := quartiles(xs)
	if !near(q1, 3) || !near(q2, 5) || !near(q3, 7) {
		t.Errorf("quartiles = %v %v %v, want 3 5 7", q1, q2, q3)
	}
}

func TestMidmean(t *testing.T) {
	// The middle half of 1..8 is 3, 4, 5, 6.
	if got := midmean([]float64{8, 1, 7, 2, 6, 3, 5, 4}); !near(got, 4.5) {
		t.Errorf("midmean(1..8) = %v, want 4.5", got)
	}
	// Both tails are ignored.
	if got := midmean([]float64{-1e9, 3, 4, 5, 6, 7, 8, 1e9}); !near(got, 5.5) {
		t.Errorf("midmean with outliers = %v, want 5.5", got)
	}
	// Two humps of equal weight: the median sits on either hump's edge,
	// the midmean between them, and it moves smoothly when one job changes
	// hump.
	humps := []float64{1, 1, 1, 1, 2, 2, 2, 2}
	if got := midmean(humps); !near(got, 1.5) {
		t.Errorf("midmean of two humps = %v, want 1.5", got)
	}
	humps[3] = 2
	if got := midmean(humps); !near(got, 1.75) {
		t.Errorf("midmean after one job moved = %v, want 1.75", got)
	}
	if got := midmean([]float64{2, 4}); !near(got, 3) {
		t.Errorf("midmean of two = %v, want 3", got)
	}
	if !math.IsNaN(midmean([]float64{1})) {
		t.Error("midmean of one value should be NaN")
	}
}

func TestPairedRatio(t *testing.T) {
	// Each round's ratio is taken within the round, so a host that is
	// twice as slow in round 2 does not move it.
	base := []float64{10, 20, 10}
	main := []float64{13, 26, 14}
	if got := pairedRatio(main, base); !near(got, 1.3) {
		t.Errorf("pairedRatio = %v, want 1.3", got)
	}
	// Rounds with a missing side, or a denominator of zero, are left out.
	nan := math.NaN()
	if got := pairedRatio([]float64{13, nan, 99, 15}, []float64{10, 10, 0, nan}); !near(got, 1.3) {
		t.Errorf("pairedRatio with gaps = %v, want 1.3", got)
	}
	if !math.IsNaN(pairedRatio([]float64{nan}, []float64{1})) {
		t.Error("pairedRatio with no usable round should be NaN")
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var xs []float64
	for i := 10; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := spread(xs); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("spread(1..10) = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if got := spread([]float64{1, 2, 4}); !near(got, 1.5) {
		t.Errorf("spread(1,2,4) = %v, want 1.5", got)
	}
	// statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]: the exclusive
	// method extrapolates on short samples.
	if got := spread([]float64{1, 3}); !near(got, 1.5) {
		t.Errorf("spread(1,3) = %v, want 1.5", got)
	}
	if !math.IsNaN(spread([]float64{1})) {
		t.Error("spread of one value should be NaN")
	}
}
