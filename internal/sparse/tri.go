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
		if !haveDiag || diag == 0 {
			return fmt.Errorf("sparse: zero diagonal at row %d in SolveUpper", i)
		}
		x[i] = s / diag
	}
	return nil
}

// BlockTriangles cuts rows [lo, hi) of the matrix into the pair an ILU(0)
// factor is computed in, in place: the lower (j ≤ i) and upper (j ≥ i)
// triangles of its nblocks diagonal blocks, block b holding rows and
// columns [lo+b·m/nblocks, lo+(b+1)·m/nblocks) with m = hi−lo. Entries
// outside a row's block are dropped and the rest renumbered from lo, so both
// are m×m; a stored diagonal is in both. One pass counts, the six arrays are
// allocated at their final length, a second pass fills: plain ILU(0) is one
// block of every row, block-Jacobi nblocks of them, and a par rank cuts its
// own rows inside every distributed solve.
func (a *CSR) BlockTriangles(lo, hi, nblocks int) (l, u *CSR) {
	m := hi - lo
	if lo < 0 || hi > a.Rows || hi > a.Cols || m < 0 || nblocks < 1 || nblocks > max(m, 1) {
		panic("sparse: bad range in BlockTriangles")
	}
	l = &CSR{Rows: m, Cols: m, RowPtr: make([]int, m+1)}
	u = &CSR{Rows: m, Cols: m, RowPtr: make([]int, m+1)}
	for pass := 0; pass < 2; pass++ {
		if pass == 1 {
			l.ColIdx, l.Val = make([]int, l.RowPtr[m]), make([]float64, l.RowPtr[m])
			u.ColIdx, u.Val = make([]int, u.RowPtr[m]), make([]float64, u.RowPtr[m])
		}
		for b := 0; b < nblocks; b++ {
			c0, c1 := lo+b*m/nblocks, lo+(b+1)*m/nblocks
			for i := c0; i < c1; i++ {
				// Row i's entries in [c0, c1) are [s, e). L takes [s, dl),
				// those up to the diagonal, and U [d, e), those from it on;
				// dl = d+1 where the diagonal is stored, else d.
				s, e := a.RowPtr[i], a.RowPtr[i+1]
				for s < e && a.ColIdx[s] < c0 {
					s++
				}
				d := s
				for d < e && a.ColIdx[d] < i {
					d++
				}
				for e > d && a.ColIdx[e-1] >= c1 {
					e--
				}
				dl := d
				if d < e && a.ColIdx[d] == i {
					dl++
				}
				r := i - lo
				if pass == 0 {
					l.RowPtr[r+1] = l.RowPtr[r] + dl - s
					u.RowPtr[r+1] = u.RowPtr[r] + e - d
					continue
				}
				a.copyRun(l, l.RowPtr[r], s, dl, lo)
				a.copyRun(u, u.RowPtr[r], d, e, lo)
			}
		}
	}
	return l.planRows(), u.planRows()
}

// copyRun writes a's entries [s, e) into t from position k on, their
// columns less shift.
func (a *CSR) copyRun(t *CSR, k, s, e, shift int) {
	copy(t.Val[k:], a.Val[s:e])
	for _, j := range a.ColIdx[s:e] {
		t.ColIdx[k] = j - shift
		k++
	}
}
