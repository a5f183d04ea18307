package precond_test

import (
	"fmt"
	"testing"

	"newsum/internal/par"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// TestRankBlocksMatchCOO: what a rank engine builds at set-up — its diagonal
// block under the nnz-balanced partition and the block's ILU(0) stages —
// equals the COO-routed block and factors bit for bit, at 1–4 ranks.
func TestRankBlocksMatchCOO(t *testing.T) {
	for name, a := range map[string]*sparse.CSR{
		"laplacian2d": sparse.Laplacian2D(40, 40),
		"circuit":     sparse.CircuitLike(3000, 20160531),
		"convdiff":    sparse.ConvectionDiffusion2D(31, 29, 20),
	} {
		for ranks := 1; ranks <= 4; ranks++ {
			part := par.NnzPartition(a, ranks)
			for r := 0; r < ranks; r++ {
				lo, hi := part.Range(r)
				what := fmt.Sprintf("%s rank %d/%d", name, r, ranks)
				c := sparse.NewCOO(hi-lo, hi-lo)
				for i := lo; i < hi; i++ {
					cols, vals := a.RowView(i)
					for k, j := range cols {
						if j >= lo && j < hi {
							c.Add(i-lo, j-lo, vals[k])
						}
					}
				}
				want := c.ToCSR()
				blk := a.SubMatrix(lo, hi)
				precond.RequireFactorEqual(t, what+" block", blk, want)
				m, err := precond.ILU0(blk)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				wantL, wantU, err := precond.ILU0FactorCOO(want)
				if err != nil {
					t.Fatalf("%s: oracle: %v", what, err)
				}
				precond.RequireFactorEqual(t, what+" L", m.Stages()[0].M, wantL)
				precond.RequireFactorEqual(t, what+" U", m.Stages()[1].M, wantU)
			}
		}
	}
}
