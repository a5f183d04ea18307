package sparse

import (
	"fmt"

	"newsum/internal/vec"
)

// SolveLower solves L·x = b for x, where the receiver stores a lower
// triangular matrix with nonzero diagonal (entries above the diagonal, if
// present, are ignored). When unitDiag is true the diagonal is taken to be
// one regardless of storage, the convention of ILU(0) L factors.
//
// x and b may alias. Triangular solves are the building block of the PCO
// operation for factored preconditioners (§4 "Preconditioner", implicit M).
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

// SolveLowerDotAbs is SolveLower that also fills lv's leaves of rows[j]·x
// and Σ|rows[j]_i·x_i| — the Eq. (4) row reductions over the solution —
// block of vec.Block rows by block, ascending, each the moment the forward
// substitution completes it and while it is still in L1. The solution is
// SolveLower's and the leaves are vec.DotAbsBlock's, bit for bit. x and b
// may alias.
//
//hot:loop fused lower solve + Eq. (4) row reductions on the protected solve path
func (a *CSR) SolveLowerDotAbs(x, b []float64, unitDiag bool, rows [][]float64, lv *vec.Leaves) error {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		//hot:cold dimension mismatch aborts the solve
		return fmt.Errorf("sparse: dimension mismatch in SolveLowerDotAbs")
	}
	for lo := 0; lo < n; lo += vec.Block {
		if err := a.solveLowerRows(x, b, unitDiag, lo, min(lo+vec.Block, n)); err != nil {
			return err
		}
		lv.FillBlock(rows, x, lo/vec.Block)
	}
	return nil
}

// solveLowerRows is SolveLower's forward substitution over rows [lo, hi),
// given x[:lo] already solved. The loop is repeated here, not shared with
// SolveLower: the plain solves are the unprotected arm's kernels and stay
// byte for byte what they were (routed through a row range they lost their
// bounds-check elimination and ≈ 5 % of the arm's time).
//
//hot:loop forward substitution inside the fused lower solve
func (a *CSR) solveLowerRows(x, b []float64, unitDiag bool, lo, hi int) error {
	x, b = x[:hi], b[:hi] // i < hi bounds both
	for i := lo; i < hi; i++ {
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
			//hot:cold singular factor aborts the solve
			return fmt.Errorf("sparse: zero diagonal at row %d in SolveLower", i)
		}
		x[i] = s / diag
	}
	return nil
}

// SolveUpperDotAbs is SolveUpper that also fills lv's leaves of rows[j]·x
// and Σ|rows[j]_i·x_i|. The back substitution descends, but a leaf is a
// left-to-right sum, so a block is summed — ascending — only once the solve
// has written its first row, i.e. completed it; the leaves are therefore
// filled last block first, which the fold does not care about. x and b may
// alias.
//
//hot:loop fused upper solve + Eq. (4) row reductions on the protected solve path
func (a *CSR) SolveUpperDotAbs(x, b []float64, rows [][]float64, lv *vec.Leaves) error {
	n := a.Rows
	if a.Cols != n || len(x) != n || len(b) != n {
		//hot:cold dimension mismatch aborts the solve
		return fmt.Errorf("sparse: dimension mismatch in SolveUpperDotAbs")
	}
	for blk := vec.Blocks(n) - 1; blk >= 0; blk-- {
		if err := a.solveUpperRows(x, b, blk*vec.Block, min((blk+1)*vec.Block, n)); err != nil {
			return err
		}
		lv.FillBlock(rows, x, blk)
	}
	return nil
}

// solveUpperRows is SolveUpper's back substitution over rows [lo, hi),
// descending, given x[hi:] already solved.
//
//hot:loop back substitution inside the fused upper solve
func (a *CSR) solveUpperRows(x, b []float64, lo, hi int) error {
	b = b[:hi] // i < hi bounds it
	for i := hi - 1; i >= lo; i-- {
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
			//hot:cold singular factor aborts the solve
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
	return t
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
	return t
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
	return t
}
