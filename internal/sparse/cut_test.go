package sparse

import (
	"fmt"
	"reflect"
	"testing"
)

// cutByCOO is the oracle of BlockTriangles: the kept entries of rows
// [r0, r1) added to a COO builder one by one, columns less shift, and
// converted — the route block-Jacobi's factor and the triangle cuts took
// before BlockTriangles counted first.
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

// trianglesByCOO is BlockTriangles(lo, hi, nblocks) through cutByCOO, each
// row's block [c0, c1) listed first, as block-Jacobi's assembly loop walked
// them.
func trianglesByCOO(a *CSR, lo, hi, nblocks int) (l, u *CSR) {
	m := hi - lo
	c0, c1 := make([]int, a.Rows), make([]int, a.Rows)
	for b := 0; b < nblocks; b++ {
		for i := lo + b*m/nblocks; i < lo+(b+1)*m/nblocks; i++ {
			c0[i], c1[i] = lo+b*m/nblocks, lo+(b+1)*m/nblocks
		}
	}
	l = cutByCOO(a, lo, hi, lo, m, func(i, j int) bool { return j >= c0[i] && j <= i })
	u = cutByCOO(a, lo, hi, lo, m, func(i, j int) bool { return j >= i && j < c1[i] })
	return l, u
}

// requireCutEqual holds a direct builder's result to the oracle's: the three
// arrays bit for bit, the row plan (requireSamePlan), and arrays allocated
// at exactly their final length.
func requireCutEqual(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	requireSamePlan(t, what, got, want)
	if cap(got.RowPtr) != len(got.RowPtr) || cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
		t.Fatalf("%s: cap/len RowPtr %d/%d ColIdx %d/%d Val %d/%d, want exact",
			what, cap(got.RowPtr), len(got.RowPtr), cap(got.ColIdx), len(got.ColIdx), cap(got.Val), len(got.Val))
	}
}

// requireSamePlan holds got to want's three arrays bit for bit and to its
// row plan (reflect.DeepEqual reaches the unexported field).
func requireSamePlan(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	requireSameCSR(t, what, got, want)
	if !reflect.DeepEqual(got.plan, want.plan) {
		t.Fatalf("%s: row plan differs from the COO-built matrix's", what)
	}
}

func requireTrianglesMatch(t *testing.T, what string, a *CSR, lo, hi, nblocks int) {
	t.Helper()
	l, u := a.BlockTriangles(lo, hi, nblocks)
	wantL, wantU := trianglesByCOO(a, lo, hi, nblocks)
	requireCutEqual(t, what+" lower", l, wantL)
	requireCutEqual(t, what+" upper", u, wantU)
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
		// The whole matrix in one block (plain ILU(0)) and in block-Jacobi's
		// counts, 16 being the benchmark's.
		for _, nb := range []int{1, 2, 3, 16, n} {
			requireTrianglesMatch(t, fmt.Sprintf("%s [0,%d)/%d", name, n, nb), a, 0, n, nb)
		}
		// A par rank's block: even splits, the empty range, one row, and
		// ranges off every block boundary, in one block and in several.
		ranges := [][2]int{{0, 0}, {n, n}, {n / 2, n / 2}, {n / 3, n/3 + 1}, {3, n - 2}, {0, 129}, {n - 129, n}}
		for _, nb := range []int{2, 3, 4} {
			for b := 0; b < nb; b++ {
				ranges = append(ranges, [2]int{b * n / nb, (b + 1) * n / nb})
			}
		}
		for _, r := range ranges {
			lo, hi := r[0], r[1]
			requireTrianglesMatch(t, fmt.Sprintf("%s [%d,%d)", name, lo, hi), a, lo, hi, 1)
			if hi-lo >= 5 {
				requireTrianglesMatch(t, fmt.Sprintf("%s [%d,%d)/5", name, lo, hi), a, lo, hi, 5)
			}
		}
	}
}

func TestCutEdges(t *testing.T) {
	// Row 1 has no entry inside [1, 3) and none on or left of its diagonal;
	// row 2 has no diagonal; row 3 is empty; column 4 lies outside every
	// square block.
	c := NewCOO(4, 5)
	for _, e := range [][2]int{{0, 0}, {0, 4}, {1, 3}, {1, 4}, {2, 0}, {2, 1}, {2, 4}} {
		c.Add(e[0], e[1], float64(1+e[0]*5+e[1]))
	}
	a := c.ToCSR()
	for lo := 0; lo <= 4; lo++ {
		for hi := lo; hi <= 4; hi++ {
			for nb := 1; nb <= max(hi-lo, 1); nb++ {
				requireTrianglesMatch(t, fmt.Sprintf("[%d,%d)/%d", lo, hi, nb), a, lo, hi, nb)
			}
		}
	}
	if l, u := a.BlockTriangles(1, 3, 1); l.NNZ() != 1 || u.NNZ() != 0 || l.RowPtr[1] != 0 || l.At(1, 0) != a.At(2, 1) {
		t.Fatalf("BlockTriangles(1,3,1): L %v %v %v, U %v", l.RowPtr, l.ColIdx, l.Val, u.RowPtr)
	}
	for _, bad := range [][3]int{{-1, 2, 1}, {3, 2, 1}, {0, 5, 1}, {0, 2, 0}, {0, 2, 3}, {1, 1, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("BlockTriangles%v did not panic", bad)
				}
			}()
			a.BlockTriangles(bad[0], bad[1], bad[2])
		}()
	}
}
