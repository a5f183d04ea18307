package kernel

import (
	"newsum/internal/sparse"
)

// Block (multi-RHS) SpMV kernel. The New-Sum checksum relations extend
// columnwise — see internal/checksum/block.go — so a batch of solves
// sharing one operator can share one matrix traversal per iteration. The
// kernel computes ys[j] := A·xs[j] for every column j, walking each row's
// nonzeros once and accumulating all columns from the loaded (value,
// column-index) pair, which is where the batched solve's amortization over
// k independent SpMVs comes from: the index structure and matrix values
// are streamed through the cache once per iteration instead of k times.
//
// Determinism contract: each column's accumulation visits the row's
// nonzeros in exactly the serial left-to-right order of sparse.CSR.MulVec,
// so every output column is bitwise-identical to a single-RHS MulVec of
// that column — at any worker count, including the nil (serial) pool.
// The batched protected solve in internal/core relies on this: its
// per-column iterates must match k independent single-RHS solves bit for
// bit when the batch is fault-free.

// blockColChunk bounds how many columns one row sweep accumulates at a
// time: the per-column running sums live in a fixed-size stack array, so
// the steady-state kernel allocates nothing, and eight float64 accumulators
// stay comfortably within the register budget.
const blockColChunk = 8

// MulVecBlock computes ys[j] := A·xs[j] for every column j, bitwise-equal
// per column to MulVec (and hence to sparse.CSR.MulVec). Rows are
// partitioned across workers by nonzero count exactly as MulVec partitions
// them; columns are accumulated in fixed-size chunks within each row.
//
//hot:loop block SpMV kernel on the batched protected solve path
func (p *Pool) MulVecBlock(a *sparse.CSR, ys, xs [][]float64) {
	if len(ys) != len(xs) {
		panic("kernel: column count mismatch in MulVecBlock")
	}
	for j := range xs {
		if len(xs[j]) != a.Cols || len(ys[j]) != a.Rows {
			panic("kernel: dimension mismatch in MulVecBlock")
		}
	}
	switch len(xs) {
	case 0:
		return
	case 1:
		p.MulVec(a, ys[0], xs[0])
		return
	}
	if p == nil || a.NNZ() < minParallel {
		mulVecBlockRange(a, ys, xs, 0, a.Rows)
		return
	}
	p.nnzBounds(a)
	p.op = op{kind: opMulVecBlock, a: a, dsts: ys, xss: xs}
	p.launch()
}

// mulVecBlockRange computes ys[j][lo:hi] := (A·xs[j])[lo:hi] for every
// column j. Each column's per-row sum accumulates over the row's nonzeros
// in ascending index order — the exact serial order of CSR.MulVec — so the
// result is bitwise-identical per column regardless of the chunking.
//
//hot:loop per-part body of the block SpMV kernel
func mulVecBlockRange(a *sparse.CSR, ys, xs [][]float64, lo, hi int) {
	var sums [blockColChunk]float64
	for c0 := 0; c0 < len(xs); c0 += blockColChunk {
		c1 := min(c0+blockColChunk, len(xs))
		xc, yc := xs[c0:c1], ys[c0:c1]
		s := sums[:c1-c0]
		for r := lo; r < hi; r++ {
			for j := range s {
				s[j] = 0
			}
			cols, vals := a.RowView(r)
			for t, c := range cols {
				v := vals[t]
				for j := range s {
					s[j] += v * xc[j][c]
				}
			}
			for j := range s {
				yc[j][r] = s[j]
			}
		}
	}
}
