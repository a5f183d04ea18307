package checksum

import (
	"fmt"

	"newsum/internal/sparse"
)

// Distributed checksum splitting.
//
// A row-partitioned solver keeps only rows [lo, hi) of every vector, yet the
// new-sum relationships are global: checksum(v) = Σ_i c_i·v_i runs over all
// ranks' blocks, and the encoded matrix row checksum(A) = cᵀA − d·cᵀ mixes
// contributions from every rank's rows. The helpers here split both objects
// along the partition so each rank can carry exactly its additive share:
//
//   - ShiftWeight gives the rank-local view of the global weight vector, so
//     locally encoded stage matrices (block preconditioners) produce exactly
//     the rank's slice of the global checksum rows.
//   - PartialMatrixRow accumulates one rank's rows' contribution to cᵀA;
//     all-reducing the partials over the team yields the full dense row.
//   - LocalRowSlice then carves the rank's [lo, hi) slice of cᵀA − d·cᵀ out
//     of the reduced row, which is all a rank needs to run the Eq. (2) MVM
//     update on its own block: the per-rank partial updates sum to the
//     global rule, so verification still needs only scalar all-reductions.

// ShiftWeight returns the weight evaluated at a fixed global offset:
// ShiftWeight(c, lo).At(i) = c.At(lo+i). A rank owning rows [lo, hi) uses
// the shifted weight wherever a serial solver would index the global
// checksum vector with local indices.
func ShiftWeight(w Weight, offset int) Weight {
	if offset == 0 {
		return w
	}
	at := w.At
	return Weight{
		Name: fmt.Sprintf("%s@%d", w.Name, offset),
		At:   func(i int) float64 { return at(offset + i) },
	}
}

// PartialMatrixRow accumulates rows [lo, hi)'s contribution to the dense
// product cᵀA into full (length a.Cols). It does not zero full first, so a
// caller can fold several row ranges into one buffer; the sum of all ranks'
// partials over a full partition equals the complete cᵀA.
func PartialMatrixRow(a *sparse.CSR, w Weight, lo, hi int, full []float64) {
	if len(full) != a.Cols {
		panic("checksum: buffer length mismatch in PartialMatrixRow")
	}
	if lo < 0 || hi > a.Rows || lo > hi {
		panic("checksum: row range out of bounds in PartialMatrixRow")
	}
	for i := lo; i < hi; i++ {
		ci := w.At(i)
		cols, vals := a.RowView(i)
		for t, j := range cols {
			full[j] += ci * vals[t]
		}
	}
}

// LocalRowSlice carves the [lo, lo+len(row)) slice of the encoded row
// cᵀA − d·cᵀ out of the complete (already reduced) dense product
// full = cᵀA into row; for a full partition the concatenation of all
// ranks' slices is exactly the EncodeMatrix row.
func LocalRowSlice(row, full []float64, w Weight, d float64, lo int) {
	if lo < 0 || lo+len(row) > len(full) {
		panic("checksum: slice range out of bounds in LocalRowSlice")
	}
	for j := range row {
		row[j] = full[lo+j] - d*w.At(lo+j)
	}
}
