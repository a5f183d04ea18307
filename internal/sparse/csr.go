// Package sparse implements the sparse-matrix substrate the paper's solvers
// run on: CSR storage, matrix-vector products (the MVM operation), triangular
// solves (used by ILU/IC preconditioners), structural and numerical property
// queries, and generators for the evaluation matrices (a circuit-topology SPD
// matrix standing in for UFL G3_circuit, Laplacians, convection–diffusion).
package sparse

import (
	"fmt"
	"math"

	"newsum/internal/vec"
)

// CSR is a sparse matrix in compressed sparse row format.
//
// RowPtr has length Rows+1; the column indices and values of row i occupy
// ColIdx[RowPtr[i]:RowPtr[i+1]] and Val[RowPtr[i]:RowPtr[i+1]]. Column
// indices within a row are sorted ascending, which the triangular solves
// and the diagonal extraction rely on.
//
// The pattern — Rows, Cols, RowPtr, ColIdx — is immutable once the matrix is
// built: the row plan below and every TriSchedule's window onto RowPtr are
// derived from it once and never again. Val may be edited in place (the
// in-place factorizations). Everything in this package that builds a
// CSR ends by planning its rows; a CSR assembled as a literal has no plan
// and multiplies by the plain row loop, which is also what the tests hold
// the planned product to. Validate reports a plan that no longer matches
// RowPtr.
type CSR struct {
	Rows, Cols int
	RowPtr     []int
	ColIdx     []int
	Val        []float64

	plan *rowPlan // the order MulVecRows visits rows in; nil: as stored
}

// NNZ returns the number of stored entries.
func (a *CSR) NNZ() int { return len(a.Val) }

// Dims returns the matrix dimensions.
func (a *CSR) Dims() (rows, cols int) { return a.Rows, a.Cols }

// Sparsity returns nnz/n, the paper's c0 parameter (average nonzeros per
// row) used in the Table 4 cost analysis.
func (a *CSR) Sparsity() float64 {
	if a.Rows == 0 {
		return 0
	}
	return float64(a.NNZ()) / float64(a.Rows)
}

// Validate checks the structural invariants of the CSR representation and
// returns a descriptive error on the first violation.
func (a *CSR) Validate() error {
	if a.Rows < 0 || a.Cols < 0 {
		return fmt.Errorf("sparse: negative dimensions %dx%d", a.Rows, a.Cols)
	}
	if len(a.RowPtr) != a.Rows+1 {
		return fmt.Errorf("sparse: RowPtr length %d, want %d", len(a.RowPtr), a.Rows+1)
	}
	if a.RowPtr[0] != 0 {
		return fmt.Errorf("sparse: RowPtr[0] = %d, want 0", a.RowPtr[0])
	}
	if len(a.ColIdx) != len(a.Val) {
		return fmt.Errorf("sparse: ColIdx length %d != Val length %d", len(a.ColIdx), len(a.Val))
	}
	if a.RowPtr[a.Rows] != len(a.Val) {
		return fmt.Errorf("sparse: RowPtr[end] = %d, want nnz %d", a.RowPtr[a.Rows], len(a.Val))
	}
	for i := 0; i < a.Rows; i++ {
		if a.RowPtr[i] > a.RowPtr[i+1] {
			return fmt.Errorf("sparse: RowPtr not monotone at row %d", i)
		}
		prev := -1
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if j < 0 || j >= a.Cols {
				return fmt.Errorf("sparse: column %d out of range in row %d", j, i)
			}
			if j <= prev {
				return fmt.Errorf("sparse: columns not strictly ascending in row %d", i)
			}
			prev = j
		}
	}
	if a.plan != nil {
		return a.plan.validate(a)
	}
	return nil
}

// At returns the value at (i, j), which is zero for entries not stored. It
// is O(log nnz(row)) and intended for tests and small matrices, not kernels.
func (a *CSR) At(i, j int) float64 {
	if i < 0 || i >= a.Rows || j < 0 || j >= a.Cols {
		panic(fmt.Sprintf("sparse: index (%d,%d) out of range %dx%d", i, j, a.Rows, a.Cols))
	}
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	for lo < hi {
		mid := (lo + hi) / 2
		switch {
		case a.ColIdx[mid] < j:
			lo = mid + 1
		case a.ColIdx[mid] > j:
			hi = mid
		default:
			return a.Val[mid]
		}
	}
	return 0
}

// Clone returns a deep copy of the matrix. The copy shares the row plan,
// which is a function of the pattern alone and is never written.
func (a *CSR) Clone() *CSR {
	b := &CSR{
		Rows:   a.Rows,
		Cols:   a.Cols,
		RowPtr: make([]int, len(a.RowPtr)),
		ColIdx: make([]int, len(a.ColIdx)),
		Val:    make([]float64, len(a.Val)),
		plan:   a.plan,
	}
	copy(b.RowPtr, a.RowPtr)
	copy(b.ColIdx, a.ColIdx)
	copy(b.Val, a.Val)
	return b
}

// Diag extracts the main diagonal into dst (allocated if nil) and returns it.
// Missing diagonal entries are zero.
func (a *CSR) Diag(dst []float64) []float64 {
	n := a.Rows
	if a.Cols < n {
		n = a.Cols
	}
	if dst == nil {
		dst = make([]float64, n)
	}
	if len(dst) != n {
		panic("sparse: Diag destination length mismatch")
	}
	for i := 0; i < n; i++ {
		dst[i] = 0
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				dst[i] = a.Val[k]
				break
			}
			if a.ColIdx[k] > i {
				break
			}
		}
	}
	return dst
}

// Transpose returns Aᵀ as a new CSR matrix using a two-pass counting
// algorithm, O(nnz + rows + cols).
func (a *CSR) Transpose() *CSR {
	t := &CSR{
		Rows:   a.Cols,
		Cols:   a.Rows,
		RowPtr: make([]int, a.Cols+1),
		ColIdx: make([]int, a.NNZ()),
		Val:    make([]float64, a.NNZ()),
	}
	for _, j := range a.ColIdx {
		t.RowPtr[j+1]++
	}
	for j := 0; j < a.Cols; j++ {
		t.RowPtr[j+1] += t.RowPtr[j]
	}
	next := make([]int, a.Cols)
	copy(next, t.RowPtr[:a.Cols])
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			p := next[j]
			t.ColIdx[p] = i
			t.Val[p] = a.Val[k]
			next[j]++
		}
	}
	return t.planRows()
}

// rowDot returns Σ_k vals[k]·x[cols[k]], accumulated left to right from +0:
// the order (and so the bits) of every product row in the repo. Reslicing
// vals to len(cols) leaves the gather x[j] as the one bounds check of the
// loop.
func rowDot(cols []int, vals, x []float64) float64 {
	vals = vals[:len(cols)]
	var s float64
	for k, j := range cols {
		s += vals[k] * x[j]
	}
	return s
}

// MulVecRows computes dst[i-lo] := (A·x)[i] for the rows i in [lo, hi) — the
// one CSR row kernel behind MulVec, MulVecRange, MulVecDotAbs and
// par.DistMatrix.MulVec. The whole vec.Block windows of the range go run by
// run through the row plan where there is one (rowplan.go); its ragged ends,
// and all of it otherwise, through the row loop. Each row is rowDot's sum
// either way, so where a range is cut and how it is walked cannot reach a
// bit. dst must not alias x.
func (a *CSR) MulVecRows(dst, x []float64, lo, hi int) {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic("sparse: bad row range in MulVecRows")
	}
	if len(x) != a.Cols || len(dst) != hi-lo {
		panic("sparse: dimension mismatch in MulVecRows")
	}
	if w0, w1 := (lo+vec.Block-1)/vec.Block, hi/vec.Block; a.plan != nil && w0 < w1 {
		head, tail := w0*vec.Block, w1*vec.Block
		a.mulRows(dst[:head-lo], x, lo, head)
		a.mulWindows(dst[head-lo:tail-lo], x, w0, w1)
		dst, lo = dst[tail-lo:], tail
	}
	a.mulRows(dst, x, lo, hi)
}

// mulRows is MulVecRows taking the rows as stored. The backing slices are
// hoisted and each row is a pair of sub-slices cut at consecutive RowPtr
// values, each loaded once.
func (a *CSR) mulRows(dst, x []float64, lo, hi int) {
	rowPtr, colIdx, val := a.RowPtr[lo:hi+1], a.ColIdx, a.Val
	k0 := rowPtr[0]
	for i := range dst {
		k1 := rowPtr[i+1]
		dst[i] = rowDot(colIdx[k0:k1], val[k0:k1], x)
		k0 = k1
	}
}

// MulVec computes y := A·x, the paper's MVM operation. y must not alias x.
func (a *CSR) MulVec(y, x []float64) {
	if len(y) != a.Rows {
		panic("sparse: dimension mismatch in MulVec")
	}
	a.MulVecRows(y, x, 0, a.Rows)
}

// MulVecRange computes y[lo:hi] := (A·x)[lo:hi], recomputing only the rows in
// [lo, hi). It is the partial-recomputation primitive the online-MV baseline's
// binary-search localization uses.
func (a *CSR) MulVecRange(y, x []float64, lo, hi int) {
	if lo < 0 || hi > a.Rows || lo > hi {
		panic("sparse: bad row range in MulVecRange")
	}
	if len(y) != a.Rows {
		panic("sparse: dimension mismatch in MulVecRange")
	}
	a.MulVecRows(y[lo:hi], x, lo, hi)
}

// fuseStretch is how many rows the fused SpMV multiplies before it fills
// the leaves they cover: 64 leaves, a 64 KB stretch of x that is still in L2
// at any n. The row kernel runs ahead across rows, and restarting it every
// leaf cost more than the reduction it made room for (docs/kernels.md
// "Sparse sweep contract").
const fuseStretch = 64 * vec.Block

// MulVecDotAbs computes y[i-org] := (A·x)[i] for the rows i in [lo, hi) of
// a square matrix and, stretch of fuseStretch rows by stretch inside the
// same sweep, lv's leaves of rows[j]·x[org:org+len(y)] and their absolute
// sums for the blocks the range covers — the Eq. (2) row reductions, taken
// while the stretch of x the product has just walked past is still in
// cache. y, rows[j] and the leaves are numbered from row org, so the region
// they cover is [org, org+len(y)): the whole matrix for org = 0 and len(y)
// = a.Rows, one rank's row block for org its first row and y its output.
// lo−org must be a multiple of vec.Block and hi−org one too unless hi ends
// the region, so that every leaf is built whole by one caller; the product
// is MulVecRows's and the leaves are vec.DotAbsBlocks's, bit for bit.
func (a *CSR) MulVecDotAbs(y, x []float64, rows [][]float64, lv *vec.Leaves, org, lo, hi int) {
	if a.Rows != a.Cols {
		panic("sparse: MulVecDotAbs requires a square matrix")
	}
	end := org + len(y)
	if lo < org || hi > end || (lo-org)%vec.Block != 0 || ((hi-org)%vec.Block != 0 && hi != end) {
		panic("sparse: row range not block-aligned in MulVecDotAbs")
	}
	xr := x[org:end]
	for ; lo < hi; lo += fuseStretch {
		next := min(lo+fuseStretch, hi)
		a.MulVecRows(y[lo-org:next-org], x, lo, next)
		lv.FillBlocks(rows, xr, (lo-org)/vec.Block, vec.Blocks(next-org))
	}
}

// MulVecStride computes y[i] := (A·x)[i] for rows i = start, start+stride,
// start+2·stride, … — a strided partial product. The fault-injection layer
// uses it to model a cache line being present for some rows of an MVM and
// evicted for others.
func (a *CSR) MulVecStride(y, x []float64, start, stride int) {
	if stride < 1 || start < 0 {
		panic("sparse: bad stride in MulVecStride")
	}
	if len(x) != a.Cols || len(y) != a.Rows {
		panic("sparse: dimension mismatch in MulVecStride")
	}
	for i := start; i < a.Rows; i += stride {
		cols, vals := a.RowView(i)
		y[i] = rowDot(cols, vals, x)
	}
}

// NormInf returns the induced infinity norm max_i sum_j |a_ij|, the ‖A‖∞
// appearing in the paper's lower bound for the scalar d (Lemma 2).
func (a *CSR) NormInf() float64 {
	var m float64
	for i := 0; i < a.Rows; i++ {
		var s float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			s += math.Abs(a.Val[k])
		}
		if s > m {
			m = s
		}
	}
	return m
}

// GershgorinBounds returns enclosing bounds [lo, hi] for the eigenvalues of
// a square matrix from the Gershgorin circle theorem: every eigenvalue lies
// in some disc centred at a_ii with radius Σ_{j≠i}|a_ij|. For SPD matrices
// max(lo, 0⁺) and hi bound the spectrum, which is what the Chebyshev
// semi-iteration needs.
func (a *CSR) GershgorinBounds() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := 0; i < a.Rows; i++ {
		var diag, radius float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				diag = a.Val[k]
			} else {
				radius += math.Abs(a.Val[k])
			}
		}
		if d := diag - radius; d < lo {
			lo = d
		}
		if d := diag + radius; d > hi {
			hi = d
		}
	}
	if a.Rows == 0 {
		return 0, 0
	}
	return lo, hi
}

// IsSymmetric reports whether the matrix is numerically symmetric to within
// tol. It requires a square matrix and runs in O(nnz·log nnz/row).
func (a *CSR) IsSymmetric(tol float64) bool {
	if a.Rows != a.Cols {
		return false
	}
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			j := a.ColIdx[k]
			if math.Abs(a.Val[k]-a.At(j, i)) > tol {
				return false
			}
		}
	}
	return true
}

// IsDiagonallyDominant reports whether |a_ii| >= sum_{j!=i} |a_ij| for every
// row, with strict inequality in at least one row.
func (a *CSR) IsDiagonallyDominant() bool {
	if a.Rows != a.Cols {
		return false
	}
	strict := false
	for i := 0; i < a.Rows; i++ {
		var diag, off float64
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			if a.ColIdx[k] == i {
				diag = math.Abs(a.Val[k])
			} else {
				off += math.Abs(a.Val[k])
			}
		}
		if diag < off {
			return false
		}
		if diag > off {
			strict = true
		}
	}
	return strict
}

// RowView returns the column indices and values of row i as sub-slices of
// the backing arrays. Callers must not modify the returned slices' lengths.
func (a *CSR) RowView(i int) (cols []int, vals []float64) {
	lo, hi := a.RowPtr[i], a.RowPtr[i+1]
	return a.ColIdx[lo:hi], a.Val[lo:hi]
}

// Dense returns the dense row-major form of the matrix; intended for tests
// on small systems only.
func (a *CSR) Dense() [][]float64 {
	d := make([][]float64, a.Rows)
	for i := range d {
		d[i] = make([]float64, a.Cols)
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			d[i][a.ColIdx[k]] = a.Val[k]
		}
	}
	return d
}
