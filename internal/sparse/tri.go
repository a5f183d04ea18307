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
	t := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] <= i {
				t.ColIdx = append(t.ColIdx, a.ColIdx[k])
				t.Val = append(t.Val, a.Val[k])
				t.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < a.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	return t.planRows()
}

// UpperTriangle returns the upper triangle of the matrix (including the
// diagonal) as a new CSR matrix.
func (a *CSR) UpperTriangle() *CSR {
	t := &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: make([]int, a.Rows+1)}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] >= i {
				t.ColIdx = append(t.ColIdx, a.ColIdx[k])
				t.Val = append(t.Val, a.Val[k])
				t.RowPtr[i+1]++
			}
		}
	}
	for i := 0; i < a.Rows; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	return t.planRows()
}

// SubMatrix extracts the principal submatrix with rows and columns in
// [lo, hi), used by the block-Jacobi preconditioner to carve out diagonal
// blocks. Entries outside the column range are dropped.
func (a *CSR) SubMatrix(lo, hi int) *CSR {
	if lo < 0 || hi > a.Rows || hi > a.Cols || lo > hi {
		panic("sparse: bad range in SubMatrix")
	}
	n := hi - lo
	t := &CSR{Rows: n, Cols: n, RowPtr: make([]int, n+1)}
	for i := lo; i < hi; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j >= lo && j < hi {
				t.ColIdx = append(t.ColIdx, j-lo)
				t.Val = append(t.Val, a.Val[k])
				t.RowPtr[i-lo+1]++
			}
		}
	}
	for i := 0; i < n; i++ {
		t.RowPtr[i+1] += t.RowPtr[i]
	}
	return t.planRows()
}
