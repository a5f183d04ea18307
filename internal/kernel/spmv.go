package kernel

import (
	"sort"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// MulVec computes y := A·x, bitwise-equal to a.MulVec: each output row is
// an independent serial accumulation, so splitting rows across workers
// cannot change a single bit. Rows are partitioned by nonzero count, not
// row count — on matrices with skewed row densities an even row split
// leaves most workers idle behind the densest chunk.
func (p *Pool) MulVec(a *sparse.CSR, y, x []float64) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("kernel: dimension mismatch in MulVec")
	}
	if p == nil || a.NNZ() < minParallel {
		a.MulVec(y, x)
		return
	}
	p.nnzBounds(a)
	p.op = op{kind: opMulVec, a: a, dst: y, x: x}
	p.launch()
}

// MulVecDotAbs computes y := A·x for a square matrix and, inside the same
// sweep, fills lv's leaves of rows[j]·x and Σ|rows[j]_i·x_i| — the row
// reductions of the Eq. (2) checksum update, which the caller folds. The
// product is bitwise MulVec's and the folded reductions are bitwise
// vec.DotAbs's at any worker count: each worker fills the leaves of the
// blocks its row range covers, and nnzBounds keeps every boundary on a leaf
// boundary, so no leaf is split.
func (p *Pool) MulVecDotAbs(a *sparse.CSR, y, x []float64, rows [][]float64, lv *vec.Leaves) {
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("kernel: dimension mismatch in MulVecDotAbs")
	}
	if p == nil || a.NNZ() < minParallel {
		a.MulVecDotAbs(y, x, rows, lv, 0, a.Rows)
		return
	}
	p.nnzBounds(a)
	p.op = op{kind: opMulVecDotAbs, a: a, dst: y, x: x, rows: rows, lv: lv}
	p.launch()
}

// nnzBounds fills p.bounds with workers+1 row boundaries splitting a's
// rows into contiguous ranges of near-equal nonzero count, each interior
// boundary rounded down to a multiple of vec.Block so a fused kernel's
// reduction leaves never straddle two workers. RowPtr is sorted, so each
// boundary is one binary search — O(workers·log rows) per call, negligible
// next to the O(nnz) product, which is why the bounds are recomputed per
// call instead of cached against a matrix identity. execPart reads the
// boundaries from p.bounds.
func (p *Pool) nnzBounds(a *sparse.CSR) []int {
	if cap(p.bounds) < p.workers+1 {
		p.bounds = make([]int, p.workers+1)
	}
	b := p.bounds[:p.workers+1]
	b[0] = 0
	nnz := a.NNZ()
	for i := 1; i < p.workers; i++ {
		j := sort.SearchInts(a.RowPtr, nnz/p.workers*i)
		j -= j % vec.Block
		if j < b[i-1] {
			j = b[i-1]
		}
		if j > a.Rows {
			j = a.Rows
		}
		b[i] = j
	}
	b[p.workers] = a.Rows
	return b
}
