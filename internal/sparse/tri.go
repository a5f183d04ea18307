package sparse

import "fmt"

// SolveLower solves L·x = b for x, where the receiver stores a lower
// triangular matrix with nonzero diagonal (entries above the diagonal, if
// present, are ignored). When unitDiag is true the diagonal is taken to be
// one regardless of storage, the convention of ILU(0) L factors.
//
// x and b may alias. Triangular solves are the building block of the PCO
// operation for factored preconditioners (§4 "Preconditioner", implicit M);
// this loop and SolveUpper are the reference — the order of operations that
// defines the bits — and TriSchedule is what the preconditioners run.
func (a *CSR) SolveLower(x, b []float64, unitDiag bool) error {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		return fmt.Errorf("sparse: dimension mismatch in SolveLower")
	}
	for i := 0; i < n; i++ {
		s := b[i]
		diag := 0.0
		haveDiag := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			switch {
			case j < i:
				s -= a.Val[k] * x[j]
			case j == i:
				diag, haveDiag = a.Val[k], true
			}
		}
		if unitDiag {
			x[i] = s
			continue
		}
		//lint:ignore floatcmp exact-zero pivot is the standard singularity convention (cf. LAPACK)
		if !haveDiag || diag == 0 {
			return fmt.Errorf("sparse: zero diagonal at row %d in SolveLower", i)
		}
		x[i] = s / diag
	}
	return nil
}

// SolveUpper solves U·x = b for x, where the receiver stores an upper
// triangular matrix with nonzero diagonal (entries below the diagonal are
// ignored). x and b may alias.
func (a *CSR) SolveUpper(x, b []float64) error {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		return fmt.Errorf("sparse: dimension mismatch in SolveUpper")
	}
	for i := n - 1; i >= 0; i-- {
		s := b[i]
		diag := 0.0
		haveDiag := false
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			switch {
			case j > i:
				s -= a.Val[k] * x[j]
			case j == i:
				diag, haveDiag = a.Val[k], true
			}
		}
		//lint:ignore floatcmp exact-zero pivot is the standard singularity convention (cf. LAPACK)
		if !haveDiag || diag == 0 {
			return fmt.Errorf("sparse: zero diagonal at row %d in SolveUpper", i)
		}
		x[i] = s / diag
	}
	return nil
}

// LowerTriangle returns the lower triangle of the matrix (including the
// diagonal) as a new CSR matrix.
func (a *CSR) LowerTriangle() *CSR {
	return a.cut(0, a.Rows, 0, a.Cols, func(i int) (int, int) { return 0, i + 1 })
}

// UpperTriangle returns the upper triangle of the matrix (including the
// diagonal) as a new CSR matrix.
func (a *CSR) UpperTriangle() *CSR {
	return a.cut(0, a.Rows, 0, a.Cols, func(i int) (int, int) { return i, a.Cols })
}

// SubMatrix extracts the principal submatrix with rows and columns in
// [lo, hi), used by the block-Jacobi preconditioner to carve out diagonal
// blocks. Entries outside the column range are dropped.
func (a *CSR) SubMatrix(lo, hi int) *CSR {
	if lo < 0 || hi > a.Rows || hi > a.Cols || lo > hi {
		panic("sparse: bad range in SubMatrix")
	}
	return a.cut(lo, hi, lo, hi-lo, func(int) (int, int) { return lo, hi })
}

// cut builds the cols-column matrix of rows [r0, r1) of a, row i cut to its
// columns in window(i) = [c0, c1) — a run of the row, the columns being
// ascending — and those renumbered from shift. It counts, allocates the
// three arrays at their final length, then fills: a rank's block and a
// factorization's triangles are cut inside every distributed solve.
func (a *CSR) cut(r0, r1, shift, cols int, window func(i int) (c0, c1 int)) *CSR {
	run := func(i int) (s, e int) {
		c0, c1 := window(i)
		s, e = a.RowPtr[i], a.RowPtr[i+1]
		for s < e && a.ColIdx[s] < c0 {
			s++
		}
		for e > s && a.ColIdx[e-1] >= c1 {
			e--
		}
		return s, e
	}
	n := r1 - r0
	t := &CSR{Rows: n, Cols: cols, RowPtr: make([]int, n+1)}
	for i := r0; i < r1; i++ {
		s, e := run(i)
		t.RowPtr[i-r0+1] = t.RowPtr[i-r0] + e - s
	}
	t.ColIdx, t.Val = make([]int, t.RowPtr[n]), make([]float64, t.RowPtr[n])
	for i := r0; i < r1; i++ {
		s, e := run(i)
		k := t.RowPtr[i-r0]
		copy(t.Val[k:], a.Val[s:e])
		for _, j := range a.ColIdx[s:e] {
			t.ColIdx[k] = j - shift
			k++
		}
	}
	return t.planRows()
}
