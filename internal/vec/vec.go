// Package vec provides the dense vector kernels (the paper's "vector linear
// operations", VLOs) that iterative methods are built from: copy, scale,
// axpy-style updates, dot products and norms.
//
// Every kernel is allocation-free and operates on caller-provided slices so
// the solvers in internal/solver and the ABFT schemes in internal/core can
// reuse buffers across iterations; Take and Put (pool.go) reuse the
// buffers themselves across solves. Lengths must match; mismatches panic, as
// they indicate programmer error rather than runtime conditions.
package vec

import (
	"math"
	"slices"
)

// Copy copies src into dst. It is the VLO assignment w := u.
func Copy(dst, src []float64) {
	if len(dst) != len(src) {
		panic("vec: length mismatch in Copy")
	}
	copy(dst, src)
}

// Zero sets every element of x to zero.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// Fill sets every element of x to v.
func Fill(x []float64, v float64) {
	for i := range x {
		x[i] = v
	}
}

// Scale computes w := alpha*u element-wise. dst and u may alias.
func Scale(dst []float64, alpha float64, u []float64) {
	if len(dst) != len(u) {
		panic("vec: length mismatch in Scale")
	}
	for i, v := range u {
		dst[i] = alpha * v
	}
}

// Add computes w := u + v element-wise. dst may alias either operand.
func Add(dst, u, v []float64) {
	if len(dst) != len(u) || len(dst) != len(v) {
		panic("vec: length mismatch in Add")
	}
	for i := range dst {
		dst[i] = u[i] + v[i]
	}
}

// Sub computes w := u - v element-wise. dst may alias either operand.
func Sub(dst, u, v []float64) {
	if len(dst) != len(u) || len(dst) != len(v) {
		panic("vec: length mismatch in Sub")
	}
	for i := range dst {
		dst[i] = u[i] - v[i]
	}
}

// Axpy computes y := y + alpha*x, the classic BLAS-1 update.
func Axpy(y []float64, alpha float64, x []float64) {
	if len(y) != len(x) {
		panic("vec: length mismatch in Axpy")
	}
	k := axpbyPacked(y, alpha, x, 1, y)
	axpyLoop(y[k:], alpha, x[k:])
}

// Axpby computes w := alpha*x + beta*y, the general VLO of Eq. (3) in the
// paper. dst may be x or y — the same slice, not one that overlaps it at an
// offset: elements are read and written four at a time.
func Axpby(dst []float64, alpha float64, x []float64, beta float64, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("vec: length mismatch in Axpby")
	}
	k := axpbyPacked(dst, alpha, x, beta, y)
	axpbyLoop(dst[k:], alpha, x[k:], beta, y[k:])
}

// Xpby computes w := x + beta*y, the search-direction update p = z + beta*p
// used by CG-family methods. dst may be x or y — the same slice, not one
// that overlaps it at an offset.
func Xpby(dst, x []float64, beta float64, y []float64) {
	if len(dst) != len(x) || len(dst) != len(y) {
		panic("vec: length mismatch in Xpby")
	}
	k := axpbyPacked(dst, 1, x, beta, y)
	xpbyLoop(dst[k:], x[k:], beta, y[k:])
}

// The three loops below are the VLOs as they have always been written. They
// are what non-amd64 and -tags purego builds run end to end, what every
// build runs over the last len mod 4 elements, and what the tests hold the
// packed prefix (axpbyPacked, leaf_amd64.go) against, bit for bit.

func axpyLoop(y []float64, alpha float64, x []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

func axpbyLoop(dst []float64, alpha float64, x []float64, beta float64, y []float64) {
	for i := range dst {
		dst[i] = alpha*x[i] + beta*y[i]
	}
}

func xpbyLoop(dst, x []float64, beta float64, y []float64) {
	for i := range dst {
		dst[i] = x[i] + beta*y[i]
	}
}

// Reductions (Dot, Sum, WeightedSum and their Abs variants, and Norm2,
// which is √(u·u)) use fixed-block pairwise summation: the vector is cut
// into blocks of Block elements, each block is accumulated in a fixed
// order, and the block partials are combined by a balanced pairwise tree.
// Naive left-to-right accumulation has a worst-case error of
// O(n·ε)·Σ|terms|; at n ≈ 10⁶ that crowds the near-τ band the checksum
// comparison verifies in, inflating false positives. The blocked form
// tightens the bound to O((Block + log n)·ε), independent of worker count.
//
// There are two leaf orders. The solver's dot accumulates a block left to
// right: its bits are pinned against internal/solver and decide iteration
// counts, so it keeps that order — but not its cost: DotBlocks runs the
// chains of four blocks side by side. The checksum reductions (DotAbs,
// SumAbs, WeightedSumAbs — value and Σ|·| — and Sum and WeightedSum, which
// are the same leaves without the second result) accumulate a block in four
// lanes, combined (l0+l2)+(l1+l3) — see leaf.go — because three of them
// ride every protected iteration and a single chain costs one FP-add
// latency per element.
//
// The reduction tree is a pure function of n — NEVER of how the leaves were
// computed — so a parallel evaluation that computes leaf partials with any
// number of workers and combines them with PairwiseSum reproduces the
// serial result bit for bit. internal/kernel relies on this contract; do
// not change the split rule or a leaf's accumulation order without updating
// it (and docs/kernels.md) in lockstep.

// Block is the fixed leaf size of every blocked pairwise reduction.
const Block = 128

// Blocks returns the number of reduction blocks covering n elements.
func Blocks(n int) int {
	return (n + Block - 1) / Block
}

// blockBounds returns the element range [lo, hi) of block b in a vector of
// length n.
func blockBounds(n, b int) (lo, hi int) {
	lo = b * Block
	hi = lo + Block
	if hi > n {
		hi = n
	}
	return lo, hi
}

// PairwiseSum combines precomputed block partials with the tree every
// reduction in this package shares: the block-index range is split at
// mid = lo + ceil((hi-lo)/2) down to single leaves. The serial reductions
// fold their subtrees here; kernel workers fill p[b] for disjoint block
// ranges and a single combiner calls this, so the result is
// bitwise-identical to the serial reduction for any worker count. Four
// leaves or fewer are written out — the same splits, without a call each —
// because every fused checksum update folds its leaves here, twice per
// encoded row.
func PairwiseSum(p []float64) float64 {
	switch len(p) {
	case 0:
		return 0
	case 1:
		return p[0]
	case 2:
		return p[0] + p[1]
	case 3:
		return (p[0] + p[1]) + p[2]
	case 4:
		return (p[0] + p[1]) + (p[2] + p[3])
	}
	mid := (len(p) + 1) / 2
	return PairwiseSum(p[:mid]) + PairwiseSum(p[mid:])
}

// DotBlock returns the naive left-to-right partial of u·v over block b —
// the leaf of the blocked pairwise dot.
func DotBlock(u, v []float64, b int) float64 {
	lo, hi := blockBounds(len(u), b)
	var s float64
	for i := lo; i < hi; i++ {
		s += u[i] * v[i]
	}
	return s
}

// DotBlocks stores the leaves of blocks lo, lo+1, … of u·v in part, one per
// element: part[k] is DotBlock(u, v, lo+k), bit for bit. Full blocks are
// taken four at a time in lockstep — four chains in one loop, each the
// left-to-right chain of its own block, so the loop waits on one FP-add
// latency per four elements and no leaf changes — and what is left, the
// ragged last block included, through DotBlock.
func DotBlocks(part, u, v []float64, lo int) {
	k := 0
	for ; k+4 <= len(part) && (lo+k+4)*Block <= len(u); k += 4 {
		uu := (*[4 * Block]float64)(u[(lo+k)*Block:])
		vv := (*[4 * Block]float64)(v[(lo+k)*Block:])
		var s0, s1, s2, s3 float64
		for i := 0; i < Block; i++ {
			s0 += uu[i] * vv[i]
			s1 += uu[Block+i] * vv[Block+i]
			s2 += uu[2*Block+i] * vv[2*Block+i]
			s3 += uu[3*Block+i] * vv[3*Block+i]
		}
		part[k], part[k+1], part[k+2], part[k+3] = s0, s1, s2, s3
	}
	for ; k < len(part); k++ {
		part[k] = DotBlock(u, v, lo+k)
	}
}

// DotAbsBlock returns the block-b partials of u·v and Σ|u_i·v_i| in one
// pass — the four-lane leaf of every checksum row reduction, as the range
// filler DotAbsBlocks stores it.
func DotAbsBlock(u, v []float64, b int) (sum, abs float64) {
	var s, a [1]float64
	DotAbsBlocks(s[:], a[:], u, v, b)
	return s[0], a[0]
}

// SumAbsBlock returns the block-b partials of Σu_i and Σ|u_i| in one pass:
// the all-ones weight's leaf. 1·u_i is exact, so the pair is bitwise what
// WeightedSumAbsBlock returns for w ≡ 1, without a call per element.
func SumAbsBlock(u []float64, b int) (sum, abs float64) {
	return WeightedSumAbsBlock(u, nil, b)
}

// WeightedSumAbsBlock returns the block-b partials of Σ w(i)·u_i and
// Σ|w(i)·u_i| in one pass; a nil w is the all-ones weight.
func WeightedSumAbsBlock(u []float64, w func(i int) float64, b int) (sum, abs float64) {
	var s, a [1]float64
	weightedSumAbsBlocks(s[:], a[:], u, w, b)
	return s[0], a[0]
}

// weightedSumAbsBlocks stores the (Σ, Σ|·|) leaves of blocks lo, lo+1, … of
// Σ w(i)·u_i. The products of one lockstep group of blocks at a time go
// through a stack scratch to SumAbsBlocks, so the all-ones fast path — a
// nil w, which hands u itself to SumAbsBlocks — is bitwise its weighted
// twin by construction.
func weightedSumAbsBlocks(sum, abs, u []float64, w func(i int) float64, lo int) {
	if w == nil {
		SumAbsBlocks(sum, abs, u, lo)
		return
	}
	var t [4 * Block]float64
	for k := 0; k < len(sum); k += 4 {
		g := min(4, len(sum)-k)
		first := (lo + k) * Block
		x := u[first:min(first+g*Block, len(u))]
		for i, xi := range x {
			t[i] = w(first+i) * xi
		}
		SumAbsBlocks(sum[k:k+g], abs[k:k+g], t[:len(x)], 0)
	}
}

// Dot returns the inner product u·v (the paper's VDP operation), blocked
// pairwise.
func Dot(u, v []float64) float64 {
	if len(u) != len(v) {
		panic("vec: length mismatch in Dot")
	}
	return dotTree(u, v, 0, Blocks(len(u)))
}

// dotSubtree is the widest block range a serial reduction folds from one
// stack scratch.
const dotSubtree = 64

// dotTree is pairwise's tree over the blocks [lo, hi) of u·v: the split rule
// down to ranges of at most dotSubtree blocks, then the leaves of a range
// filled by DotBlocks and folded by PairwiseSum, which is that same rule.
func dotTree(u, v []float64, lo, hi int) float64 {
	if hi-lo <= dotSubtree {
		return dotLeaves(u, v, lo, hi)
	}
	mid := lo + (hi-lo+1)/2
	return dotTree(u, v, lo, mid) + dotTree(u, v, mid, hi)
}

// dotLeaves holds the scratch so that dotTree's frames stay small.
func dotLeaves(u, v []float64, lo, hi int) float64 {
	var part [dotSubtree]float64
	DotBlocks(part[:hi-lo], u, v, lo)
	return PairwiseSum(part[:hi-lo])
}

// DotAbs returns u·v and Σ|u_i·v_i| in one blocked pairwise pass — the pair
// the checksum round-off bounds need.
func DotAbs(u, v []float64) (sum, abs float64) {
	if len(u) != len(v) {
		panic("vec: length mismatch in DotAbs")
	}
	return dotAbsTree(u, v, 0, Blocks(len(u)))
}

// dotAbsTree is dotTree for the pair: DotAbsBlocks fills a subtree's leaves,
// and combining the pair in one descent is arithmetically identical to two
// separate trees.
func dotAbsTree(u, v []float64, lo, hi int) (sum, abs float64) {
	if hi-lo <= dotSubtree {
		var s, a [dotSubtree]float64
		DotAbsBlocks(s[:hi-lo], a[:hi-lo], u, v, lo)
		return PairwiseSum(s[:hi-lo]), PairwiseSum(a[:hi-lo])
	}
	mid := lo + (hi-lo+1)/2
	s1, a1 := dotAbsTree(u, v, lo, mid)
	s2, a2 := dotAbsTree(u, v, mid, hi)
	return s1 + s2, a1 + a2
}

// Sum returns the sum of the elements of u, i.e. the inner product with the
// all-ones checksum vector c1, blocked pairwise: SumAbs's sum, so a
// checksum computed with Sum and one verified with SumAbs are the same bits.
func Sum(u []float64) float64 {
	sum, _ := SumAbs(u)
	return sum
}

// WeightedSum returns sum_i w(i)*u[i] for a functional weight, used by the
// checksum package to evaluate c2 = (1..n) and c3 = (1, 1/2, ..., 1/n)
// inner products without materializing the weight vectors: WeightedSumAbs's
// sum.
func WeightedSum(u []float64, w func(i int) float64) float64 {
	sum, _ := WeightedSumAbs(u, w)
	return sum
}

// WeightedSumAbs returns Σ w(i)·u_i and Σ|w(i)·u_i| in one blocked pairwise
// pass — the checksum verification's (measured sum, round-off scale) pair.
// A nil w is the all-ones weight.
func WeightedSumAbs(u []float64, w func(i int) float64) (sum, abs float64) {
	return weightedSumAbsTree(u, w, 0, Blocks(len(u)))
}

// weightedSumAbsTree is dotAbsTree over the products w(i)·u_i.
func weightedSumAbsTree(u []float64, w func(i int) float64, lo, hi int) (sum, abs float64) {
	if hi-lo <= dotSubtree {
		var s, a [dotSubtree]float64
		weightedSumAbsBlocks(s[:hi-lo], a[:hi-lo], u, w, lo)
		return PairwiseSum(s[:hi-lo]), PairwiseSum(a[:hi-lo])
	}
	mid := lo + (hi-lo+1)/2
	s1, a1 := weightedSumAbsTree(u, w, lo, mid)
	s2, a2 := weightedSumAbsTree(u, w, mid, hi)
	return s1 + s2, a1 + a2
}

// SumAbs returns Σu_i and Σ|u_i| in one blocked pairwise pass — the
// verification pair of the all-ones checksum, bitwise-equal to
// WeightedSumAbs with a weight that is 1 everywhere.
func SumAbs(u []float64) (sum, abs float64) {
	return WeightedSumAbs(u, nil)
}

// Leaves is the workspace of k simultaneous (Σ, Σ|·|) blocked reductions
// over length-n vectors whose leaves are computed inside another kernel's
// sweep: an SpMV or a triangular solve calls FillBlocks for a range of
// blocks while the stretch of the vector it has just read or written is
// still in cache, in whatever order it visits the ranges, and Fold then
// combines the leaves with the tree every reduction in this package shares.
// The leaves are DotAbsBlocks's and the tree is PairwiseSum, so Sum[j],
// Abs[j] are bitwise what DotAbs(rows[j], v) returns — however many workers
// filled disjoint block ranges, and in whatever order.
type Leaves struct {
	leafSum, leafAbs [][]float64
	// Sum[j] and Abs[j] are reduction j's folded results, valid after Fold.
	Sum, Abs []float64
}

// NewLeaves returns the workspace for k reductions over length-n vectors.
func NewLeaves(k, n int) *Leaves {
	l := &Leaves{
		leafSum: make([][]float64, k), leafAbs: make([][]float64, k),
		Sum: make([]float64, k), Abs: make([]float64, k),
	}
	for j := range l.leafSum {
		l.leafSum[j] = make([]float64, Blocks(n))
		l.leafAbs[j] = make([]float64, Blocks(n))
	}
	return l
}

// FillBlocks stores the leaves of rows[j]·v and Σ|rows[j]_i·v_i| over the
// blocks [b0, b1) for every reduction j. rows holds one length-n vector
// per reduction.
func (l *Leaves) FillBlocks(rows [][]float64, v []float64, b0, b1 int) {
	for j, row := range rows {
		DotAbsBlocks(l.leafSum[j][b0:b1], l.leafAbs[j][b0:b1], row, v, b0)
	}
}

// Fold combines the leaves into Sum and Abs. Every block must have been
// filled since the last Fold.
func (l *Leaves) Fold() {
	for j := range l.Sum {
		l.Sum[j], l.Abs[j] = PairwiseSum(l.leafSum[j]), PairwiseSum(l.leafAbs[j])
	}
}

// norm2Floor is the least u·u that Norm2 takes the square root of. A
// square below the normal range keeps an absolute error of at most
// 2^-1075 — half the subnormal spacing — instead of a relative one, and
// sums of such squares are exact, so underflow adds at most n·2^-1075 to
// the sum; at u·u ≥ 2^-900 that is n·2^-175 relative, below one rounding
// for any n a slice can hold. Above the floor, and short of +Inf, u·u is a
// dot of non-negative terms and carries only the dot's round-off.
const norm2Floor = 0x1p-900

// InNormWindow reports whether ss, a sum of squares as Dot accumulates
// them, is finite and at least norm2Floor: whether √ss is the norm to
// within a dot's round-off. NaN, ±Inf and sums too small to stand for
// their terms are outside.
func InNormWindow(ss float64) bool {
	return ss >= norm2Floor && ss <= math.MaxFloat64
}

// Norm2 returns the Euclidean norm of u: √(u·u) on Dot's leaves and tree
// inside the window InNormWindow draws, and LAPACK dnrm2's scaled loop
// over the whole vector outside it (zero, subnormal, overflowing, Inf or
// NaN input).
func Norm2(u []float64) float64 {
	return Norm2FromDot(u, Dot(u, u))
}

// Norm2FromDot returns ‖u‖ given uu, u·u as Dot computes it — the one
// guard both the serial and the pooled norm apply to their (bitwise equal)
// dots.
func Norm2FromDot(u []float64, uu float64) float64 {
	if InNormWindow(uu) {
		return math.Sqrt(uu)
	}
	scale, ssq := ScaledNorm2(u)
	return scale * math.Sqrt(ssq)
}

// ScaledNorm2 returns u's norm as dnrm2 carries it, ‖u‖ = scale·√ssq: one
// pass, left to right, a running scale and the sum of squares relative to
// it, so no square overflows or underflows. A zero vector is (0, 1).
func ScaledNorm2(u []float64) (scale, ssq float64) {
	ssq = 1
	for _, x := range u {
		if x == 0 {
			continue
		}
		ax := math.Abs(x)
		if scale < ax {
			r := scale / ax
			ssq = 1 + ssq*r*r
			scale = ax
		} else {
			r := ax / scale
			ssq += r * r
		}
	}
	return scale, ssq
}

// CombineNorm2 merges two (scale, ssq) pairs into one, rescaling the
// smaller onto the larger.
func CombineNorm2(s1, q1, s2, q2 float64) (scale, ssq float64) {
	if s1 < s2 {
		s1, q1, s2, q2 = s2, q2, s1, q1
	}
	if s2 == 0 {
		return s1, q1
	}
	r := s2 / s1
	return s1, q1 + q2*r*r
}

// SameBits reports whether u and v hold the same IEEE-754 words.
func SameBits(u, v []float64) bool {
	return slices.EqualFunc(u, v, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// Equal reports whether u and v agree element-wise to within tol in absolute
// value. Vectors of different lengths are never equal.
func Equal(u, v []float64, tol float64) bool {
	if len(u) != len(v) {
		return false
	}
	for i := range u {
		if math.Abs(u[i]-v[i]) > tol {
			return false
		}
	}
	return true
}
