package checksum

import (
	"fmt"
	"math"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Matrix holds the new-sum encoding of a square matrix A for a set of
// checksum weights: one dense row checksum(A) = cᵀA − d·cᵀ per weight
// (Fig. 2(c)), plus the shared decoupling scalar d. The rows are kept
// separate from A itself (Fig. 2(d)) so the original operation — and, for
// SPD matrices, symmetry — is untouched, and the output vector's checksums
// are computed directly from the inputs' checksums.
type Matrix struct {
	N       int
	D       float64
	Weights []Weight
	// Rows[k] is the length-N dense vector (c_kᵀA − d·c_kᵀ).
	Rows [][]float64
}

// EncodeMatrix computes the new-sum checksum rows of a for each weight with
// decoupling scalar d. Cost: one pass over the nonzeros per weight, O(nnz).
func EncodeMatrix(a *sparse.CSR, weights []Weight, d float64) *Matrix {
	if a.Rows != a.Cols {
		panic("checksum: EncodeMatrix requires a square matrix")
	}
	if d == 0 {
		panic("checksum: decoupling scalar d must be non-zero")
	}
	if len(weights) == 0 {
		panic("checksum: at least one weight required")
	}
	m := &Matrix{N: a.Rows, D: d, Weights: weights, Rows: make([][]float64, len(weights))}
	for k, w := range weights {
		row := make([]float64, a.Cols)
		// cᵀA: accumulate c_i * a_ij into column j.
		for i := 0; i < a.Rows; i++ {
			ci := w.At(i)
			cols, vals := a.RowView(i)
			for t, j := range cols {
				row[j] += ci * vals[t]
			}
		}
		// − d·cᵀ densifies the row.
		for j := range row {
			row[j] -= d * w.At(j)
		}
		m.Rows[k] = row
	}
	return m
}

// UpdateMVM computes the output checksums of w := A·u from the input
// checksums su, per Eq. (2): checksum_k(w) = Rows[k]·u + d·su[k].
// The result is written to dst, which must have one slot per weight.
// Cost: one dense dot of length N per weight — O(N), independent of nnz.
func (m *Matrix) UpdateMVM(dst []float64, u []float64, su []float64) {
	if len(u) != m.N {
		panic("checksum: vector length mismatch in UpdateMVM")
	}
	if len(dst) != len(m.Weights) || len(su) != len(m.Weights) {
		panic("checksum: checksum slot mismatch in UpdateMVM")
	}
	for k, row := range m.Rows {
		dst[k] = vec.Dot(row, u) + m.D*su[k]
	}
}

// UpdatePCO computes the output checksums of the preconditioned solve
// M·w = u from the input checksums su and the computed solution w, per the
// (sign-corrected) Eq. (4): checksum_k(w) = (su[k] − Rows[k]·w) / d, where
// Rows encodes M. See DESIGN.md §2 for the derivation; this form satisfies
// Lemma 1's identity checksum(w) − cᵀw = (checksum(u) − cᵀu)/d.
func (m *Matrix) UpdatePCO(dst []float64, w []float64, su []float64) {
	if len(w) != m.N {
		panic("checksum: vector length mismatch in UpdatePCO")
	}
	if len(dst) != len(m.Weights) || len(su) != len(m.Weights) {
		panic("checksum: checksum slot mismatch in UpdatePCO")
	}
	for k, row := range m.Rows {
		dst[k] = (su[k] - vec.Dot(row, w)) / m.D
	}
}

// UpdateVLOAxpby computes the checksums of z := alpha·x + beta·y from the
// operand checksums, per Eq. (3). O(1) per weight. dst may alias sx or sy.
func UpdateVLOAxpby(dst []float64, alpha float64, sx []float64, beta float64, sy []float64) {
	if len(dst) != len(sx) || len(dst) != len(sy) {
		panic("checksum: checksum slot mismatch in UpdateVLOAxpby")
	}
	for k := range dst {
		dst[k] = alpha*sx[k] + beta*sy[k]
	}
}

// UpdateVLOScale computes the checksums of w := alpha·u. dst may alias su.
func UpdateVLOScale(dst []float64, alpha float64, su []float64) {
	if len(dst) != len(su) {
		panic("checksum: checksum slot mismatch in UpdateVLOScale")
	}
	for k := range dst {
		dst[k] = alpha * su[k]
	}
}

// UpdateVLOAxpy computes the checksums of y := y + alpha·x in place on sy.
func UpdateVLOAxpy(sy []float64, alpha float64, sx []float64) {
	if len(sy) != len(sx) {
		panic("checksum: checksum slot mismatch in UpdateVLOAxpy")
	}
	for k := range sy {
		sy[k] += alpha * sx[k]
	}
}

// Eps is the double-precision machine epsilon used by the running
// round-off bounds below.
const Eps = 2.220446049250313e-16

// The Bound variants of the update rules additionally propagate a
// first-order round-off bound η for each checksum, following the standard
// model |fl(Σaᵢ) − Σaᵢ| ≤ depth·ε·Σ|aᵢ| where depth is the length of the
// longest accumulation chain. With vec's fixed-block pairwise reductions
// the chain is Block + ⌈log₂ blocks⌉ rather than n, so the η band — and
// with it the near-τ false-positive zone — stops growing linearly in n.
// The decoupling scalar d amplifies the update's round-off (the d·cᵀu
// terms cancel analytically but not in floating point), so a fixed θ
// threshold misfires once depth·ε·d approaches θ; verifying against
// max(θ·scale, K·η) keeps detection sound at any n and d. This
// running-bound machinery is an extension over the paper's fixed
// θ = 1e-10 rule (see DESIGN.md §2).

// ReduceEps returns depth·ε for a length-n blocked pairwise reduction:
// depth = Block + ⌈log₂ Blocks(n)⌉ + 2 (the naive chain inside a leaf
// block, the pairwise tree above it, one rounding for the elementwise
// product, and one slack level), capped at n so the bound never exceeds
// the classical naive-summation bound at small n.
func ReduceEps(n int) float64 {
	depth := vec.Block + 2
	for b := vec.Blocks(n); b > 1; b = (b + 1) / 2 {
		depth++
	}
	if depth > n {
		depth = n
	}
	return float64(depth) * Eps
}

// UpdateMVMBound is UpdateMVM plus η propagation:
// η_out = |d|·η_in + depth·ε·(Σ|row_i·u_i| + |d·su|).
func (m *Matrix) UpdateMVMBound(dst, etaDst []float64, u []float64, su, etaSrc []float64) {
	if len(u) != m.N {
		panic("checksum: vector length mismatch in UpdateMVMBound")
	}
	if len(dst) != len(m.Weights) || len(su) != len(m.Weights) ||
		len(etaDst) != len(m.Weights) || len(etaSrc) != len(m.Weights) {
		panic("checksum: checksum slot mismatch in UpdateMVMBound")
	}
	for k, row := range m.Rows {
		s, abs := vec.DotAbs(row, u)
		m.foldMVMBound(k, dst, etaDst, s, abs, su, etaSrc)
	}
}

// foldMVMBound folds one weight's precomputed row reduction (s, abs) =
// (Rows[k]·u, Σ|Rows[k]_i·u_i|) into the Eq. (2) update and its η bound.
// The accumulation-depth term uses the blocked pairwise bound
// (Block + ⌈log₂ blocks⌉)·ε rather than n·ε: vec's reductions guarantee it.
//
// The bound is written before the checksum so that dst may be su and etaDst
// etaSrc: a stage chain carries its checksums through in place.
func (m *Matrix) foldMVMBound(k int, dst, etaDst []float64, s, abs float64, su, etaSrc []float64) {
	etaDst[k] = math.Abs(m.D)*etaSrc[k] + ReduceEps(m.N)*(abs+math.Abs(m.D*su[k]))
	dst[k] = s + m.D*su[k]
}

// UpdateMVMBoundFrom is UpdateMVMBound with the O(n) row reductions already
// in hand — rowSum[k] and rowAbs[k] must be exactly vec.DotAbs(Rows[k], u).
// The fused kernels (kernel.MulVecDotAbs, precond.Stage.ApplyDotAbs) take
// them inside the sweep that streams u anyway, bitwise-identical to the
// separate reduction by the vec block-tree contract, and feed them through
// the same bound formulas here. dst may be su and etaDst etaSrc.
func (m *Matrix) UpdateMVMBoundFrom(dst, etaDst, rowSum, rowAbs, su, etaSrc []float64) {
	if len(dst) != len(m.Weights) || len(su) != len(m.Weights) ||
		len(etaDst) != len(m.Weights) || len(etaSrc) != len(m.Weights) ||
		len(rowSum) != len(m.Weights) || len(rowAbs) != len(m.Weights) {
		panic("checksum: checksum slot mismatch in UpdateMVMBoundFrom")
	}
	for k := range m.Rows {
		m.foldMVMBound(k, dst, etaDst, rowSum[k], rowAbs[k], su, etaSrc)
	}
}

// UpdatePCOBound is UpdatePCO plus η propagation:
// η_out = (η_in + depth·ε·(Σ|row_i·w_i| + |su|)) / |d|.
func (m *Matrix) UpdatePCOBound(dst, etaDst []float64, w []float64, su, etaSrc []float64) {
	if len(w) != m.N {
		panic("checksum: vector length mismatch in UpdatePCOBound")
	}
	if len(dst) != len(m.Weights) || len(su) != len(m.Weights) ||
		len(etaDst) != len(m.Weights) || len(etaSrc) != len(m.Weights) {
		panic("checksum: checksum slot mismatch in UpdatePCOBound")
	}
	for k, row := range m.Rows {
		s, abs := vec.DotAbs(row, w)
		m.foldPCOBound(k, dst, etaDst, s, abs, su, etaSrc)
	}
}

// foldPCOBound folds one weight's precomputed row reduction into the
// Eq. (4) update and its η bound — bound first, as in foldMVMBound, so the
// update may run in place.
func (m *Matrix) foldPCOBound(k int, dst, etaDst []float64, s, abs float64, su, etaSrc []float64) {
	etaDst[k] = (etaSrc[k] + ReduceEps(m.N)*(abs+math.Abs(su[k]))) / math.Abs(m.D)
	dst[k] = (su[k] - s) / m.D
}

// UpdatePCOBoundFrom is UpdatePCOBound with the row reductions precomputed;
// rowSum[k] and rowAbs[k] must be exactly vec.DotAbs(Rows[k], w). dst may be
// su and etaDst etaSrc.
func (m *Matrix) UpdatePCOBoundFrom(dst, etaDst, rowSum, rowAbs, su, etaSrc []float64) {
	if len(dst) != len(m.Weights) || len(su) != len(m.Weights) ||
		len(etaDst) != len(m.Weights) || len(etaSrc) != len(m.Weights) ||
		len(rowSum) != len(m.Weights) || len(rowAbs) != len(m.Weights) {
		panic("checksum: checksum slot mismatch in UpdatePCOBoundFrom")
	}
	for k := range m.Rows {
		m.foldPCOBound(k, dst, etaDst, rowSum[k], rowAbs[k], su, etaSrc)
	}
}

// UpdateVLOAxpbyBound is UpdateVLOAxpby plus η propagation.
func UpdateVLOAxpbyBound(dst, etaDst []float64, alpha float64, sx, etaX []float64, beta float64, sy, etaY []float64) {
	for k := range dst {
		dst[k] = alpha*sx[k] + beta*sy[k]
		etaDst[k] = math.Abs(alpha)*etaX[k] + math.Abs(beta)*etaY[k] +
			4*Eps*(math.Abs(alpha*sx[k])+math.Abs(beta*sy[k]))
	}
}

// UpdateVLOAxpyBound is UpdateVLOAxpy plus η propagation (in place on sy).
func UpdateVLOAxpyBound(sy, etaY []float64, alpha float64, sx, etaX []float64) {
	for k := range sy {
		sy[k] += alpha * sx[k]
		etaY[k] += math.Abs(alpha)*etaX[k] + 4*Eps*(math.Abs(sy[k])+math.Abs(alpha*sx[k]))
	}
}

// UpdateVLOScaleBound is UpdateVLOScale plus η propagation: the scaled
// source bound α·η plus the rounding of the k multiplications themselves,
// bounded by 2ε|dst[k]|.
func UpdateVLOScaleBound(dst, etaDst []float64, alpha float64, su, etaSrc []float64) {
	for k := range dst {
		dst[k] = alpha * su[k]
		etaDst[k] = math.Abs(alpha)*etaSrc[k] + 2*Eps*math.Abs(dst[k])
	}
}

// Anchor re-bases checksum slot k to a freshly measured weighted sum: the
// carried checksum becomes the measurement and its round-off bound resets
// to the single-reduction bound ReduceEps(n)·Σ|c_i·v_i|. This is the one
// sanctioned raw write to carried checksum state — verification paths that
// pass (engine.verify, the inner-level probes) re-anchor through it so the
// η band cannot compound across verification windows. Every other
// mutation of carried checksum state flows through the Eq. (2)–(4) update
// kernels.
func Anchor(s, eta []float64, k int, sum, absSum float64, n int) {
	s[k] = sum
	eta[k] = ReduceEps(n) * absSum
}

// Deltas computes δ_k = c_kᵀy − expected[k] for every weight: the checksum
// inconsistencies of vector y against its carried checksums. In the absence
// of errors every δ is round-off-small (Lemma 1); any soft error before or
// during the producing operation breaks at least δ1 (Lemma 2 / Theorem 3).
func Deltas(y []float64, weights []Weight, expected []float64) []float64 {
	if len(weights) != len(expected) {
		panic("checksum: weight/expected length mismatch in Deltas")
	}
	d := make([]float64, len(weights))
	for k, w := range weights {
		d[k] = w.Apply(y) - expected[k]
	}
	return d
}

// String identifies the encoding for diagnostics.
func (m *Matrix) String() string {
	names := ""
	for i, w := range m.Weights {
		if i > 0 {
			names += ","
		}
		names += w.Name
	}
	return fmt.Sprintf("newsum encoding n=%d d=%g weights=[%s]", m.N, m.D, names)
}
