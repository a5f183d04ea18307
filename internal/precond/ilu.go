package precond

import (
	"fmt"

	"newsum/internal/sparse"
)

// ilu0Factor computes the ILU(0) factorization of a: L (unit lower
// triangular) and U (upper triangular) share A's sparsity pattern. It is
// the standard IKJ-ordered algorithm restricted to the pattern of A, run in
// place on A's two triangles — row i's entries left of the diagonal live in
// L, the rest in U — so the factors are the only copy made.
func ilu0Factor(a *sparse.CSR) (l, u *sparse.CSR, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("precond: ILU(0) requires a square matrix")
	}
	l, u = a.LowerTriangle(), a.UpperTriangle()
	for i := 0; i < n; i++ {
		// The diagonal, where stored, ends L's row i and starts U's.
		if k := u.RowPtr[i]; k == u.RowPtr[i+1] || u.ColIdx[k] != i {
			return nil, nil, fmt.Errorf("precond: ILU(0) requires stored diagonal (row %d)", i)
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
		//lint:ignore floatcmp exact-zero pivot is the standard singularity convention (cf. LAPACK)
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
	l, u, err := ilu0Factor(a)
	if err != nil {
		return nil, err
	}
	return newStaged("ilu0", a.Rows,
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
	// Assemble the block-diagonal restriction of A, then ILU(0) it; the
	// factorization never mixes blocks because dropped couplings leave the
	// pattern block-diagonal.
	bd := sparse.NewCOO(n, n)
	bd.Grow(a.NNZ())
	for b := 0; b < nblocks; b++ {
		lo := b * n / nblocks
		hi := (b + 1) * n / nblocks
		for i := lo; i < hi; i++ {
			cols, vals := a.RowView(i)
			onDiag := false
			for k, j := range cols {
				if j >= lo && j < hi {
					bd.Add(i, j, vals[k])
					if j == i {
						onDiag = true
					}
				}
			}
			if !onDiag {
				return nil, fmt.Errorf("precond: block Jacobi requires stored diagonal (row %d)", i)
			}
		}
	}
	l, u, err := ilu0Factor(bd.ToCSR())
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
	lower := sparse.NewCOO(n, n)
	upper := sparse.NewCOO(n, n)
	mid := sparse.NewCOO(n, n)
	scale := omega / (2 - omega)
	for i := 0; i < n; i++ {
		//lint:ignore floatcmp exact-zero pivot is the standard singularity convention (cf. LAPACK)
		if diag[i] == 0 {
			return nil, fmt.Errorf("precond: SSOR requires nonzero diagonal (row %d)", i)
		}
		cols, vals := a.RowView(i)
		for k, j := range cols {
			switch {
			case j < i:
				// Fold the trailing ω/(2−ω) scale into the first factor.
				lower.Add(i, j, vals[k]*scale)
			case j > i:
				upper.Add(i, j, vals[k])
			}
		}
		lower.Add(i, i, diag[i]/omega*scale)
		upper.Add(i, i, diag[i]/omega)
		mid.Add(i, i, diag[i]/omega)
	}
	return newStaged(fmt.Sprintf("ssor(%.2f)", omega), n,
		Stage{Op: StageSolve, M: lower.ToCSR(), Shape: Lower},
		Stage{Op: StageMul, M: mid.ToCSR()},
		Stage{Op: StageSolve, M: upper.ToCSR(), Shape: Upper})
}
