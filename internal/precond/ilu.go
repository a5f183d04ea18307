package precond

import (
	"fmt"

	"newsum/internal/sparse"
)

// ilu0Factor computes the ILU(0) factorization of the nblocks diagonal
// blocks of rows [lo, hi) of the square matrix a, renumbered from lo: L
// (unit lower triangular) and U (upper triangular) share the blocks'
// sparsity pattern. It is the standard IKJ-ordered algorithm restricted to
// that pattern, run in place on the pair sparse.CSR.BlockTriangles cuts —
// row i's entries left of the diagonal live in L, the rest in U — so the
// factors are the only copy made. who names the caller in the
// missing-diagonal error.
func ilu0Factor(a *sparse.CSR, lo, hi, nblocks int, who string) (l, u *sparse.CSR, err error) {
	l, u = a.BlockTriangles(lo, hi, nblocks)
	n := u.Rows
	for i := 0; i < n; i++ {
		// The diagonal, where stored, ends L's row i and starts U's.
		if k := u.RowPtr[i]; k == u.RowPtr[i+1] || u.ColIdx[k] != i {
			return nil, nil, fmt.Errorf("precond: %s requires stored diagonal (row %d)", who, i)
		}
	}
	// pos[j] is where the working row holds column j — in l.Val left of the
	// diagonal, in u.Val from it on — or -1.
	pos := make([]int, n)
	for j := range pos {
		pos[j] = -1
	}
	for i := 0; i < n; i++ {
		lrow, urow := l.ColIdx[l.RowPtr[i]:l.RowPtr[i+1]-1], u.ColIdx[u.RowPtr[i]:u.RowPtr[i+1]]
		for k, j := range lrow {
			pos[j] = l.RowPtr[i] + k
		}
		for k, j := range urow {
			pos[j] = u.RowPtr[i] + k
		}
		for k := l.RowPtr[i]; k < l.RowPtr[i+1]-1; k++ {
			// Row t < i is finished, and its pivot was found nonzero then.
			t := l.ColIdx[k]
			factor := l.Val[k] / u.Val[u.RowPtr[t]]
			l.Val[k] = factor
			// Row update restricted to A's pattern: row_i -= factor*row_t
			// for columns > t present in row i.
			for kk := u.RowPtr[t] + 1; kk < u.RowPtr[t+1]; kk++ {
				j := u.ColIdx[kk]
				switch p := pos[j]; {
				case p < 0:
				case j < i:
					l.Val[p] -= factor * u.Val[kk]
				default:
					u.Val[p] -= factor * u.Val[kk]
				}
			}
		}
		if u.Val[u.RowPtr[i]] == 0 {
			return nil, nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", i)
		}
		for _, j := range lrow {
			pos[j] = -1
		}
		for _, j := range urow {
			pos[j] = -1
		}
		l.Val[l.RowPtr[i+1]-1] = 1
	}
	return l, u, nil
}

// ILU0 returns the incomplete-LU(0) preconditioner M = L·U with the sparsity
// pattern of a. Application is two triangular solves, each an explicit PCO
// the ABFT encoding protects via Eq. (4).
func ILU0(a *sparse.CSR) (Preconditioner, error) {
	if a.Cols != a.Rows {
		return nil, fmt.Errorf("precond: ILU(0) requires a square matrix")
	}
	return ILU0Block(a, 0, a.Rows)
}

// ILU0Block returns the ILU(0) preconditioner of the diagonal block of the
// square matrix a on rows and columns [lo, hi), numbered from lo: what one
// rank of a row-partitioned solve applies to its own rows. The block is
// factored where it is cut, without a copy of it first.
func ILU0Block(a *sparse.CSR, lo, hi int) (Preconditioner, error) {
	l, u, err := ilu0Factor(a, lo, hi, 1, "ILU(0)")
	if err != nil {
		return nil, err
	}
	return newStaged("ilu0", hi-lo,
		Stage{Op: StageSolve, M: l, Shape: LowerUnit},
		Stage{Op: StageSolve, M: u, Shape: Upper})
}

// BlockJacobiILU0 returns the block-Jacobi preconditioner with an ILU(0)
// factorization of each diagonal block — PETSc's default preconditioner and
// the one the paper's empirical section uses. nblocks plays the role of the
// process count in the paper's 2048-core runs: the matrix is split into
// nblocks contiguous row ranges and couplings between ranges are dropped.
func BlockJacobiILU0(a *sparse.CSR, nblocks int) (Preconditioner, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("precond: block Jacobi requires a square matrix")
	}
	if nblocks < 1 || nblocks > n {
		return nil, fmt.Errorf("precond: nblocks %d out of range [1,%d]", nblocks, n)
	}
	// The factorization never mixes blocks: the dropped couplings leave the
	// pattern block-diagonal.
	l, u, err := ilu0Factor(a, 0, n, nblocks, "block Jacobi")
	if err != nil {
		return nil, err
	}
	return newStaged(fmt.Sprintf("bjacobi%d-ilu0", nblocks), n,
		Stage{Op: StageSolve, M: l, Shape: LowerUnit},
		Stage{Op: StageSolve, M: u, Shape: Upper})
}

// SSOR returns the symmetric successive-over-relaxation preconditioner
//
//	M = (D/ω + L) · (D/ω)⁻¹ · (D/ω + U) · ω/(2−ω)
//
// applied as solve/multiply/solve stages. omega must lie in (0, 2).
func SSOR(a *sparse.CSR, omega float64) (Preconditioner, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("precond: SSOR requires a square matrix")
	}
	if omega <= 0 || omega >= 2 {
		return nil, fmt.Errorf("precond: SSOR omega %g out of (0,2)", omega)
	}
	diag := a.Diag(nil)
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("precond: SSOR requires nonzero diagonal (row %d)", i)
		}
	}
	// Every diagonal is stored, so A's triangles have the stages' patterns;
	// their values are rewritten in place.
	lower, upper := a.BlockTriangles(0, n, 1)
	mid := sparse.Identity(n)
	scale := omega / (2 - omega)
	for i := 0; i < n; i++ {
		end := lower.RowPtr[i+1] - 1
		for k := lower.RowPtr[i]; k < end; k++ {
			// Fold the trailing ω/(2−ω) scale into the first factor.
			lower.Val[k] *= scale
		}
		lower.Val[end] = diag[i] / omega * scale
		upper.Val[upper.RowPtr[i]] = diag[i] / omega
		mid.Val[i] = diag[i] / omega
	}
	return newStaged(fmt.Sprintf("ssor(%.2f)", omega), n,
		Stage{Op: StageSolve, M: lower, Shape: Lower},
		Stage{Op: StageMul, M: mid},
		Stage{Op: StageSolve, M: upper, Shape: Upper})
}
