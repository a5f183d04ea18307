package sparse

import (
	"fmt"
	"reflect"
	"testing"
)

// cutByCOO is the oracle of SubMatrix, LowerTriangle and UpperTriangle: the
// kept entries added to a COO builder one by one and converted, the route
// every constructor in the package took before cut counted first.
func cutByCOO(a *CSR, r0, r1, shift, cols int, keep func(i, j int) bool) *CSR {
	c := NewCOO(r1-r0, cols)
	for i := r0; i < r1; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if j := a.ColIdx[k]; keep(i, j) {
				c.Add(i-r0, j-shift, a.Val[k])
			}
		}
	}
	return c.ToCSR()
}

// requireCutEqual holds a direct builder's result to the oracle's: the three
// arrays bit for bit, the row plan (reflect.DeepEqual reaches the unexported
// field), and arrays allocated at exactly their final length.
func requireCutEqual(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	requireSameCSR(t, what, got, want)
	if !reflect.DeepEqual(got.plan, want.plan) {
		t.Fatalf("%s: row plan differs from the COO-built matrix's", what)
	}
	if cap(got.RowPtr) != len(got.RowPtr) || cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
		t.Fatalf("%s: cap/len RowPtr %d/%d ColIdx %d/%d Val %d/%d, want exact",
			what, cap(got.RowPtr), len(got.RowPtr), cap(got.ColIdx), len(got.ColIdx), cap(got.Val), len(got.Val))
	}
}

func cutGenerators() map[string]*CSR {
	return map[string]*CSR{
		"laplacian2d":  Laplacian2D(23, 17),
		"laplacian3d":  Laplacian3D(7, 8, 9),
		"circuit":      CircuitLike(3000, 20160531),
		"convdiff":     ConvectionDiffusion2D(31, 29, 20),
		"diagdominant": DiagDominant(700, 6, 5),
		"spdrandom":    SPDRandom(900, 4, 9),
		"tridiag":      Tridiag(513, -1, 2, -1),
		"identity":     Identity(300),
	}
}

func TestCutMatchesCOO(t *testing.T) {
	for name, a := range cutGenerators() {
		n := a.Rows
		requireCutEqual(t, name+" lower", a.LowerTriangle(),
			cutByCOO(a, 0, n, 0, n, func(i, j int) bool { return j <= i }))
		requireCutEqual(t, name+" upper", a.UpperTriangle(),
			cutByCOO(a, 0, n, 0, n, func(i, j int) bool { return j >= i }))
		// Whole, even blocks (16 is block-Jacobi's count in the benchmark),
		// the empty range, one row, and ranges off every block boundary.
		ranges := [][2]int{{0, n}, {0, 0}, {n, n}, {n / 2, n / 2}, {n / 3, n/3 + 1}, {3, n - 2}, {0, 129}, {n - 129, n}}
		for _, nb := range []int{2, 3, 4, 16} {
			for b := 0; b < nb; b++ {
				ranges = append(ranges, [2]int{b * n / nb, (b + 1) * n / nb})
			}
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			requireCutEqual(t, fmt.Sprintf("%s sub[%d,%d)", name, lo, hi), a.SubMatrix(lo, hi),
				cutByCOO(a, lo, hi, lo, hi-lo, func(_, j int) bool { return j >= lo && j < hi }))
		}
	}
}

func TestCutEdges(t *testing.T) {
	// Row 1 has no entry inside [1, 3) and none on or left of its diagonal;
	// row 2 has no diagonal; row 3 is empty.
	c := NewCOO(4, 5)
	for _, e := range [][2]int{{0, 0}, {0, 4}, {1, 3}, {1, 4}, {2, 0}, {2, 1}, {2, 4}} {
		c.Add(e[0], e[1], float64(1+e[0]*5+e[1]))
	}
	a := c.ToCSR()
	requireCutEqual(t, "lower", a.LowerTriangle(), cutByCOO(a, 0, 4, 0, 5, func(i, j int) bool { return j <= i }))
	requireCutEqual(t, "upper", a.UpperTriangle(), cutByCOO(a, 0, 4, 0, 5, func(i, j int) bool { return j >= i }))
	for lo := 0; lo <= 4; lo++ {
		for hi := lo; hi <= 4; hi++ {
			requireCutEqual(t, fmt.Sprintf("sub[%d,%d)", lo, hi), a.SubMatrix(lo, hi),
				cutByCOO(a, lo, hi, lo, hi-lo, func(_, j int) bool { return j >= lo && j < hi }))
		}
	}
	if s := a.SubMatrix(1, 3); s.NNZ() != 1 || s.RowPtr[1] != 0 || s.At(1, 0) != a.At(2, 1) {
		t.Fatalf("SubMatrix(1,3): RowPtr %v ColIdx %v Val %v", s.RowPtr, s.ColIdx, s.Val)
	}
	for _, bad := range [][2]int{{-1, 2}, {3, 2}, {0, 5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SubMatrix(%d,%d) did not panic", bad[0], bad[1])
				}
			}()
			a.SubMatrix(bad[0], bad[1])
		}()
	}
}
