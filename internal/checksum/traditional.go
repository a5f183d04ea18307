package checksum

import (
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Traditional is the Huang–Abraham column-checksum encoding (§2): the matrix
// is augmented with the row cᵀA, so an encoded MVM computes
// checksum(y) = (cᵀA)·x alongside y = A·x. Verifying cᵀy against that value
// catches arithmetic errors in the multiplication — but, as §2 shows, it is
// blind to corruption of the input vector x, because both sides are computed
// from the same corrupted x. The online-MV baseline (Sloan-style) is built
// on this encoding.
type Traditional struct {
	N       int
	Weights []Weight
	// Rows[k] is the dense row c_kᵀA.
	Rows [][]float64
}

// EncodeTraditional computes cᵀA for each weight.
func EncodeTraditional(a *sparse.CSR, weights []Weight) *Traditional {
	if a.Rows != a.Cols {
		panic("checksum: EncodeTraditional requires a square matrix")
	}
	t := &Traditional{N: a.Rows, Weights: weights, Rows: make([][]float64, len(weights))}
	for k, w := range weights {
		row := make([]float64, a.Cols)
		for i := 0; i < a.Rows; i++ {
			ci := w.At(i)
			cols, vals := a.RowView(i)
			for s, j := range cols {
				row[j] += ci * vals[s]
			}
		}
		t.Rows[k] = row
	}
	return t
}

// ExpectedMVM returns the encoded checksums (c_kᵀA)·x of the product A·x,
// the quantity the traditional scheme compares cᵀy against.
func (t *Traditional) ExpectedMVM(dst []float64, x []float64) {
	if len(x) != t.N {
		panic("checksum: vector length mismatch in ExpectedMVM")
	}
	if len(dst) != len(t.Weights) {
		panic("checksum: checksum slot mismatch in ExpectedMVM")
	}
	for k, row := range t.Rows {
		dst[k] = vec.Dot(row, x)
	}
}

// VerifyMVM checks cᵀy against the encoded (cᵀA)x for every weight and
// reports whether the product passes. With a corrupted input x this check
// passes even though y is wrong — the failure mode that motivates the
// new-sum encoding.
func (t *Traditional) VerifyMVM(y, x []float64, tol Tol) bool {
	exp := make([]float64, len(t.Weights))
	t.ExpectedMVM(exp, x)
	for k, w := range t.Weights {
		delta := w.Apply(y) - exp[k]
		if !tol.Consistent(delta, t.N, exp[k]) {
			return false
		}
	}
	return true
}

// SegmentChecksum returns c_kᵀ(A·x) restricted to output rows [lo, hi),
// computed from A directly: sum over rows i in [lo,hi) of c_i·(A x)_i.
// The online-MV baseline uses segment checksums during its binary-search
// localization; computing one costs a partial MVM over the segment.
func SegmentChecksum(a *sparse.CSR, w Weight, x []float64, lo, hi int) float64 {
	var s float64
	for i := lo; i < hi; i++ {
		cols, vals := a.RowView(i)
		var yi float64
		for t, j := range cols {
			yi += vals[t] * x[j]
		}
		s += w.At(i) * yi
	}
	return s
}
