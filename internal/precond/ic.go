package precond

import (
	"fmt"
	"math"

	"newsum/internal/sparse"
)

// IC0 returns the incomplete Cholesky factorization preconditioner
// M = L·Lᵀ with L restricted to the lower-triangular sparsity pattern of
// the SPD matrix a — the "IC" of the paper's PETSc default
// ("block Jacobi with ILU/IC", §6.3). Application is a lower solve followed
// by an upper solve with Lᵀ, both explicit PCOs for the checksum engine.
//
// IC(0) can break down on matrices that are not H-matrices; a descriptive
// error suggests a diagonal shift in that case.
func IC0(a *sparse.CSR) (Preconditioner, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("precond: IC(0) requires a square matrix")
	}
	// L is factored in place on the copy of a's lower triangle that
	// BlockTriangles cuts. For the dot products Σ_k L[i][k]·L[j][k] we walk
	// the two rows' sorted column lists.
	low, _ := a.BlockTriangles(0, n, 1)
	val := low.Val

	rowOf := func(i int) ([]int, []float64) {
		lo, hi := low.RowPtr[i], low.RowPtr[i+1]
		return low.ColIdx[lo:hi], val[lo:hi]
	}
	diagIdx := make([]int, n)
	for i := 0; i < n; i++ {
		diagIdx[i] = -1
		for k := low.RowPtr[i]; k < low.RowPtr[i+1]; k++ {
			if low.ColIdx[k] == i {
				diagIdx[i] = k
			}
		}
		if diagIdx[i] < 0 {
			return nil, fmt.Errorf("precond: IC(0) requires stored diagonal (row %d)", i)
		}
	}

	// sparseDot computes Σ_k L[i][k]·L[j][k] for k < j over the stored
	// patterns (two-pointer walk over sorted columns).
	sparseDot := func(i, j int) float64 {
		ci, vi := rowOf(i)
		cj, vj := rowOf(j)
		var s float64
		p, q := 0, 0
		for p < len(ci) && q < len(cj) {
			switch {
			case ci[p] < cj[q]:
				p++
			case ci[p] > cj[q]:
				q++
			default:
				if ci[p] < j {
					s += vi[p] * vj[q]
				}
				p++
				q++
			}
		}
		return s
	}

	for i := 0; i < n; i++ {
		lo, hi := low.RowPtr[i], low.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			j := low.ColIdx[k]
			if j == i {
				break
			}
			pivot := val[diagIdx[j]]
			if pivot == 0 {
				return nil, fmt.Errorf("precond: IC(0) zero pivot at row %d", j)
			}
			val[k] = (val[k] - sparseDot(i, j)) / pivot
		}
		d := val[diagIdx[i]] - sparseDot(i, i)
		if d <= 0 {
			return nil, fmt.Errorf("precond: IC(0) breakdown at row %d (pivot %g); shift the diagonal and retry", i, d)
		}
		val[diagIdx[i]] = math.Sqrt(d)
	}

	l := &sparse.CSR{Rows: n, Cols: n, RowPtr: low.RowPtr, ColIdx: low.ColIdx, Val: val}
	lt := l.Transpose()
	return newStaged("ic0", n,
		Stage{Op: StageSolve, M: l, Shape: Lower},
		Stage{Op: StageSolve, M: lt, Shape: Upper})
}
