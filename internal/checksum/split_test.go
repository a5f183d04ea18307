package checksum

import (
	"math"
	"math/rand"
	"testing"

	"newsum/internal/sparse"
)

// The distributed-splitting helpers must reproduce the serial encoding
// exactly: summing every rank's PartialMatrixRow gives cᵀA, concatenating
// every rank's LocalRowSlice gives the EncodeMatrix row, and ShiftWeight is
// the plain index shift.

func TestShiftWeight(t *testing.T) {
	for _, w := range Triple {
		if got := ShiftWeight(w, 0); got.Name != w.Name {
			t.Errorf("offset 0 must return the weight unchanged, got %q", got.Name)
		}
		s := ShiftWeight(w, 7)
		for i := 0; i < 5; i++ {
			if got, want := s.At(i), w.At(7+i); got != want {
				t.Errorf("%s shifted At(%d) = %g, want %g", w.Name, i, got, want)
			}
		}
		if s.Name == w.Name {
			t.Errorf("shifted weight must be distinguishable from the original")
		}
	}
}

// splitBounds is an arbitrary uneven 3-way partition of n rows.
func splitBounds(n int) []int {
	return []int{0, n / 5, n / 2, n}
}

func TestPartialMatrixRowSumsToFull(t *testing.T) {
	a := sparse.CircuitLike(120, 3)
	for _, w := range Triple {
		full := make([]float64, a.Cols)
		bounds := splitBounds(a.Rows)
		for r := 0; r+1 < len(bounds); r++ {
			// Fold every rank's partial into the same buffer, as the
			// all-reduce does.
			PartialMatrixRow(a, w, bounds[r], bounds[r+1], full)
		}
		// Direct cᵀA for comparison.
		want := make([]float64, a.Cols)
		PartialMatrixRow(a, w, 0, a.Rows, want)
		for j := range full {
			if math.Abs(full[j]-want[j]) > 1e-12*(1+math.Abs(want[j])) {
				t.Fatalf("%s: partials disagree with full row at col %d: %g vs %g",
					w.Name, j, full[j], want[j])
			}
		}
	}
}

func TestLocalRowSliceConcatenatesToEncoding(t *testing.T) {
	a := sparse.Laplacian2D(9, 7)
	d := PracticalD(a)
	enc := EncodeMatrix(a, Triple, d)
	bounds := splitBounds(a.Rows)
	for k, w := range Triple {
		full := make([]float64, a.Cols)
		PartialMatrixRow(a, w, 0, a.Rows, full)
		var cat []float64
		for r := 0; r+1 < len(bounds); r++ {
			row := make([]float64, bounds[r+1]-bounds[r])
			LocalRowSlice(row, full, w, d, bounds[r])
			cat = append(cat, row...)
		}
		if len(cat) != len(enc.Rows[k]) {
			t.Fatalf("%s: concatenated length %d, want %d", w.Name, len(cat), len(enc.Rows[k]))
		}
		for j := range cat {
			if math.Abs(cat[j]-enc.Rows[k][j]) > 1e-10*(1+math.Abs(enc.Rows[k][j])) {
				t.Fatalf("%s: slice disagrees with EncodeMatrix at col %d: %g vs %g",
					w.Name, j, cat[j], enc.Rows[k][j])
			}
		}
	}
}

// The point of the splitting: per-rank partial Eq. (2) updates must sum to
// the global update. Each rank computes rowA_r·u_r + d·su_r on its own
// block; the sums over a full partition must equal checksum(A·u).
func TestPartialMVMUpdateSumsToGlobal(t *testing.T) {
	a := sparse.DiagDominant(90, 5, 11)
	d := PracticalD(a)
	rng := rand.New(rand.NewSource(5))
	u := randVec(rng, a.Rows)
	w := make([]float64, a.Rows)
	a.MulVec(w, u)

	bounds := splitBounds(a.Rows)
	weight := Ones
	full := make([]float64, a.Cols)
	PartialMatrixRow(a, weight, 0, a.Rows, full)

	var global float64
	for r := 0; r+1 < len(bounds); r++ {
		lo, hi := bounds[r], bounds[r+1]
		rowA := make([]float64, hi-lo)
		LocalRowSlice(rowA, full, weight, d, lo)
		sw := ShiftWeight(weight, lo)
		var localS float64 // rank-local input checksum c_[lo,hi)ᵀ·u_[lo,hi)
		var dot float64
		for j := 0; j < hi-lo; j++ {
			localS += sw.At(j) * u[lo+j]
			dot += rowA[j] * u[lo+j]
		}
		global += dot + d*localS
	}
	want := weight.Apply(w)
	if math.Abs(global-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("summed partial updates %g, direct checksum %g", global, want)
	}
}

func TestSplitPanics(t *testing.T) {
	a := sparse.Laplacian2D(3, 3)
	assertPanics := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	assertPanics("short buffer", func() {
		PartialMatrixRow(a, Ones, 0, a.Rows, make([]float64, a.Cols-1))
	})
	assertPanics("bad range", func() {
		PartialMatrixRow(a, Ones, 5, 2, make([]float64, a.Cols))
	})
	assertPanics("slice out of bounds", func() {
		LocalRowSlice(make([]float64, 8), make([]float64, 4), Ones, 2, 1)
	})
}
