package precond

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"newsum/internal/sparse"
)

// ilu0FactorCOO is the oracle of ilu0Factor: the factorization as it was
// before the factors were built in place — IKJ on a clone of A, then L and U
// split out entry by entry through two COO builders.
func ilu0FactorCOO(a *sparse.CSR) (l, u *sparse.CSR, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("precond: ILU(0) requires a square matrix")
	}
	w := a.Clone()
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		diagPos[i] = -1
		for k := w.RowPtr[i]; k < w.RowPtr[i+1]; k++ {
			if w.ColIdx[k] == i {
				diagPos[i] = k
				break
			}
		}
		if diagPos[i] == -1 {
			return nil, nil, fmt.Errorf("precond: ILU(0) requires stored diagonal (row %d)", i)
		}
	}
	colPos := make([]int, n)
	for j := range colPos {
		colPos[j] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := w.RowPtr[i], w.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			colPos[w.ColIdx[k]] = k
		}
		for k := lo; k < hi; k++ {
			t := w.ColIdx[k]
			if t >= i {
				break
			}
			piv := w.Val[diagPos[t]]
			if piv == 0 {
				return nil, nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", t)
			}
			factor := w.Val[k] / piv
			w.Val[k] = factor
			for kk := diagPos[t] + 1; kk < w.RowPtr[t+1]; kk++ {
				if p := colPos[w.ColIdx[kk]]; p >= 0 {
					w.Val[p] -= factor * w.Val[kk]
				}
			}
		}
		if w.Val[diagPos[i]] == 0 {
			return nil, nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", i)
		}
		for k := lo; k < hi; k++ {
			colPos[w.ColIdx[k]] = -1
		}
	}
	lc := sparse.NewCOO(n, n)
	uc := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := w.RowPtr[i]; k < w.RowPtr[i+1]; k++ {
			j := w.ColIdx[k]
			if j < i {
				lc.Add(i, j, w.Val[k])
			} else {
				uc.Add(i, j, w.Val[k])
			}
		}
		lc.Add(i, i, 1)
	}
	return lc.ToCSR(), uc.ToCSR(), nil
}

// ILU0FactorCOO and RequireFactorEqual reach the oracle from the external
// tests of this directory (the par partitions: par imports precond).
var (
	ILU0FactorCOO      = ilu0FactorCOO
	RequireFactorEqual = requireFactorEqual
)

// blockDiagCOO is BlockJacobiILU0's restriction of a to nblocks diagonal
// blocks, assembled entry by entry.
func blockDiagCOO(a *sparse.CSR, nblocks int) *sparse.CSR {
	n := a.Rows
	bd := sparse.NewCOO(n, n)
	for b := 0; b < nblocks; b++ {
		lo, hi := b*n/nblocks, (b+1)*n/nblocks
		for i := lo; i < hi; i++ {
			cols, vals := a.RowView(i)
			for k, j := range cols {
				if j >= lo && j < hi {
					bd.Add(i, j, vals[k])
				}
			}
		}
	}
	return bd.ToCSR()
}

// requireFactorEqual holds a factor built in place to the COO-built one:
// RowPtr, ColIdx, the bits of Val, the row plan (reflect.DeepEqual compares
// the unexported field too), and arrays allocated at their final length.
func requireFactorEqual(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pattern, values or row plan differ from the COO-built factor", what)
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			t.Fatalf("%s: Val[%d] = %x, COO-built %x", what, k, got.Val[k], v)
		}
	}
	if cap(got.RowPtr) != len(got.RowPtr) || cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
		t.Fatalf("%s: cap/len RowPtr %d/%d ColIdx %d/%d Val %d/%d, want exact",
			what, cap(got.RowPtr), len(got.RowPtr), cap(got.ColIdx), len(got.ColIdx), cap(got.Val), len(got.Val))
	}
}

func builderGenerators() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"laplacian2d":  sparse.Laplacian2D(23, 17),
		"laplacian3d":  sparse.Laplacian3D(7, 8, 9),
		"circuit":      sparse.CircuitLike(3000, 20160531),
		"convdiff":     sparse.ConvectionDiffusion2D(31, 29, 20),
		"diagdominant": sparse.DiagDominant(700, 6, 5),
		"spdrandom":    sparse.SPDRandom(900, 4, 9),
		"tridiag":      sparse.Tridiag(513, -1, 2, -1),
		"identity":     sparse.Identity(300),
		"one-row":      sparse.Identity(1),
		"empty":        sparse.Identity(0),
	}
}

// TestILU0FactorMatchesCOO: L and U written in place on A's triangles equal
// the factors split out of a factored clone through COO builders, bit for
// bit, on every generator — and so do the stages BlockJacobiILU0 hands the
// solvers at 1 and 16 blocks.
func TestILU0FactorMatchesCOO(t *testing.T) {
	for name, a := range builderGenerators() {
		wantL, wantU, err := ilu0FactorCOO(a)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		l, u, err := ilu0Factor(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireFactorEqual(t, name+" L", l, wantL)
		requireFactorEqual(t, name+" U", u, wantU)
		for _, nblocks := range []int{1, 16} {
			if nblocks > a.Rows {
				continue
			}
			p, err := BlockJacobiILU0(a, nblocks)
			if err != nil {
				t.Fatalf("%s bjacobi%d: %v", name, nblocks, err)
			}
			wantL, wantU, err := ilu0FactorCOO(blockDiagCOO(a, nblocks))
			if err != nil {
				t.Fatalf("%s bjacobi%d: oracle: %v", name, nblocks, err)
			}
			st := p.Stages()
			requireFactorEqual(t, fmt.Sprintf("%s bjacobi%d L", name, nblocks), st[0].M, wantL)
			requireFactorEqual(t, fmt.Sprintf("%s bjacobi%d U", name, nblocks), st[1].M, wantU)
		}
	}
}

// TestILU0FactorErrorsMatchCOO: a rectangular matrix, a missing diagonal
// (also behind a zero pivot, which must not pre-empt it) and a zero pivot —
// stored, or produced by the elimination — fail with the oracle's text.
func TestILU0FactorErrorsMatchCOO(t *testing.T) {
	build := func(n int, entries ...[3]float64) *sparse.CSR {
		c := sparse.NewCOO(n, n)
		for _, e := range entries {
			c.Add(int(e[0]), int(e[1]), e[2])
		}
		return c.ToCSR()
	}
	for name, a := range map[string]*sparse.CSR{
		"rectangular":       sparse.NewCOO(2, 3).ToCSR(),
		"no diagonal":       build(2, [3]float64{0, 1, 1}, [3]float64{1, 0, 1}),
		"empty row":         build(3, [3]float64{0, 0, 1}, [3]float64{2, 2, 1}),
		"diagonal past row": build(3, [3]float64{0, 0, 0}, [3]float64{1, 0, 1}, [3]float64{1, 2, 1}, [3]float64{2, 2, 1}),
		"stored zero pivot": build(2, [3]float64{0, 0, 0}, [3]float64{1, 0, 1}, [3]float64{1, 1, 1}),
		"eliminated pivot":  build(2, [3]float64{0, 0, 2}, [3]float64{0, 1, 4}, [3]float64{1, 0, 1}, [3]float64{1, 1, 2}),
	} {
		_, _, want := ilu0FactorCOO(a)
		_, _, got := ilu0Factor(a)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: error %v, COO-built %v", name, got, want)
		}
	}
}
