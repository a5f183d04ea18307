package precond_test

import (
	"fmt"
	"testing"

	"newsum/internal/par"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// TestRankBlocksMatchCOO: what a rank engine builds at set-up — the ILU(0)
// stages of its diagonal block under the nnz-balanced partition, cut and
// factored in place — equals the factors of the COO-routed block bit for
// bit, at 1–4 ranks.
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
				m, err := precond.ILU0Block(a, lo, hi)
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

// TestRankFactorAllocs pins what a rank's factor allocates at set-up inside
// every timed par solve: the same count for the second of two ranks as for
// a team of one, so no copy of the rank's block is made first (39 when
// SubMatrix made one; 31 while the solve chain carried a scratch vector).
func TestRankFactorAllocs(t *testing.T) {
	a := sparse.Laplacian2D(150, 150)
	part := par.NnzPartition(a, 2)
	lo, hi := part.Range(1)
	for _, r := range [][2]int{{0, a.Rows}, {lo, hi}} {
		if got := testing.AllocsPerRun(3, func() {
			if _, err := precond.ILU0Block(a, r[0], r[1]); err != nil {
				t.Fatal(err)
			}
		}); got != 30 {
			t.Errorf("ILU0Block(a, %d, %d): %v allocations, want 30", r[0], r[1], got)
		}
	}
}
