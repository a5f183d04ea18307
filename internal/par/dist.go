package par

import (
	"fmt"
	"math"

	"newsum/internal/checksum"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Partition is a contiguous row partition of N rows over Ranks() ranks:
// rank r owns rows [Bounds[r], Bounds[r+1]). Bounds is non-decreasing with
// Bounds[0] = 0 and Bounds[len-1] = N, so every row is owned by exactly
// one rank and empty ranks are representable.
type Partition struct {
	N      int
	Bounds []int
}

// Ranks returns the number of ranks the partition covers.
func (p Partition) Ranks() int { return len(p.Bounds) - 1 }

// Range returns the row range [lo, hi) owned by rank r.
func (p Partition) Range(r int) (lo, hi int) {
	return p.Bounds[r], p.Bounds[r+1]
}

// Validate checks the partition invariants.
func (p Partition) Validate() error {
	if len(p.Bounds) < 2 {
		return fmt.Errorf("par: partition needs at least one rank")
	}
	if p.Bounds[0] != 0 || p.Bounds[len(p.Bounds)-1] != p.N {
		return fmt.Errorf("par: partition bounds must span [0, %d], got [%d, %d]",
			p.N, p.Bounds[0], p.Bounds[len(p.Bounds)-1])
	}
	for r := 1; r < len(p.Bounds); r++ {
		if p.Bounds[r] < p.Bounds[r-1] {
			return fmt.Errorf("par: partition bounds decrease at rank %d", r)
		}
	}
	return nil
}

// EvenPartition block-partitions n rows evenly over size ranks — the
// PETSc-default distribution BlockRange implements, lifted to a Partition.
func EvenPartition(n, size int) Partition {
	if size < 1 {
		panic("par: partition size must be >= 1")
	}
	bounds := make([]int, size+1)
	for r := 0; r <= size; r++ {
		bounds[r] = r * n / size
	}
	return Partition{N: n, Bounds: bounds}
}

// NnzPartition partitions a's rows so each rank carries a near-equal share
// of the nonzeros — the quantity that actually sets a rank's SpMV and
// ILU(0) cost. Boundaries land where the running nonzero count crosses the
// rank's proportional share (choosing the nearer row), then are repaired so
// no rank is empty whenever a.Rows >= size. For uniform matrices this
// coincides with EvenPartition; for skewed ones (circuit-like matrices with
// dense hub rows) it removes the load imbalance that made the even split a
// straggler-bound demo.
func NnzPartition(a *sparse.CSR, size int) Partition {
	if size < 1 {
		panic("par: partition size must be >= 1")
	}
	n := a.Rows
	nnz := int64(a.NNZ())
	bounds := make([]int, size+1)
	row := 0
	for r := 1; r < size; r++ {
		target := nnz * int64(r) / int64(size)
		for row < n && int64(a.RowPtr[row]) < target {
			row++
		}
		// The crossing row: step back when the previous boundary is closer
		// to the target share (and still past the previous bound).
		if row > bounds[r-1] && row > 0 {
			below := target - int64(a.RowPtr[row-1])
			above := int64(a.RowPtr[row]) - target
			if below < above {
				row--
			}
		}
		bounds[r] = row
	}
	bounds[size] = n
	if n >= size {
		// Repair pass: guarantee at least one row per rank so rank-local
		// preconditioner blocks are never empty.
		for r := 1; r <= size; r++ {
			if bounds[r] < r {
				bounds[r] = r
			}
		}
		for r := size - 1; r >= 1; r-- {
			if max := n - (size - r); bounds[r] > max {
				bounds[r] = max
			}
		}
	}
	return Partition{N: n, Bounds: bounds}
}

// NnzImbalance returns the partition's load-imbalance factor for a: the
// largest per-rank nonzero count divided by the ideal nnz/ranks share.
// 1.0 is perfect balance.
func (p Partition) NnzImbalance(a *sparse.CSR) float64 {
	ranks := p.Ranks()
	nnz := a.NNZ()
	if nnz == 0 || ranks == 0 {
		return 1
	}
	ideal := float64(nnz) / float64(ranks)
	var worst float64
	for r := 0; r < ranks; r++ {
		lo, hi := p.Range(r)
		if load := float64(a.RowPtr[hi] - a.RowPtr[lo]); load > worst {
			worst = load
		}
	}
	return worst / ideal
}

// DistMatrix is the row-block partition of a sparse matrix held by one
// rank: rows [Lo, Hi) of the global matrix, with global column indices.
type DistMatrix struct {
	Global *sparse.CSR
	Lo, Hi int
}

// Split returns rank r's row block of a under the even block partition.
func Split(a *sparse.CSR, size, r int) *DistMatrix {
	lo, hi := BlockRange(a.Rows, size, r)
	return &DistMatrix{Global: a, Lo: lo, Hi: hi}
}

// SplitPartition returns rank r's row block of a under an explicit
// partition (the engine uses NnzPartition).
func SplitPartition(a *sparse.CSR, p Partition, r int) *DistMatrix {
	lo, hi := p.Range(r)
	return &DistMatrix{Global: a, Lo: lo, Hi: hi}
}

// LocalRows returns the number of rows this rank owns.
func (d *DistMatrix) LocalRows() int { return d.Hi - d.Lo }

// MulVec computes the local block of y = A·x: yLocal gets rows [Lo, Hi) of
// the product, from the full (gathered) input vector xGlobal.
func (d *DistMatrix) MulVec(yLocal, xGlobal []float64) {
	if len(xGlobal) != d.Global.Cols || len(yLocal) != d.LocalRows() {
		panic("par: dimension mismatch in DistMatrix.MulVec")
	}
	d.Global.MulVecRows(yLocal, xGlobal, d.Lo, d.Hi)
}

// DistVector is one rank's block of a distributed vector together with its
// rank-local contribution to the global checksums. The global checksum of
// the full vector is the all-reduced sum of the local parts — which is why
// the paper's design can keep all checksum state local and still verify
// global relationships with one scalar reduction.
type DistVector struct {
	Data []float64
	// S holds this rank's partial checksums Σ_{i∈block} c_k(i)·v_i.
	S []float64
}

// NewDistVector allocates a zero block of the given local length with
// nWeights checksum slots, in one array.
func NewDistVector(localLen, nWeights int) *DistVector {
	buf := make([]float64, localLen+nWeights)
	return &DistVector{Data: buf[:localLen:localLen], S: buf[localLen:]}
}

// localSums returns one rank's share of a checksum probe: the partial sums
// Σ c(offset+i)·x_i and Σ|c(offset+i)·x_i| over its block. Every
// recomputation of a partial checksum in this package goes through it, so
// a verification's measured sum can re-anchor the carried one bit for bit.
// The all-ones weight is vec.SumAbs, the leaf every serial checksum shares;
// the other weights accumulate left to right.
func localSums(w checksum.Weight, offset int, data []float64) (sum, abs float64) {
	if w.IsOnes() {
		return vec.SumAbs(data)
	}
	for i, x := range data {
		t := w.At(offset+i) * x
		sum += t
		abs += math.Abs(t)
	}
	return sum, abs
}

// LocalChecksums recomputes the rank-local partial checksums of v for the
// weights, offset by the rank's global row offset.
func (v *DistVector) LocalChecksums(weights []checksum.Weight, offset int) {
	for k, w := range weights {
		v.S[k], _ = localSums(w, offset, v.Data)
	}
}

// GlobalDot computes the global inner product of two distributed vectors.
func GlobalDot(c *Comm, a, b *DistVector) float64 {
	return c.AllReduceSum(vec.Dot(a.Data, b.Data))
}

// GlobalNorm2 computes the global Euclidean norm of a distributed vector:
// √ of the all-reduced u·u inside vec.InNormWindow, as vec.Norm2 takes it.
// A rank whose squares all underflowed from nonzero data reports NaN for
// its share, so an all-reduced 0 means every block is zero and the norm is
// 0 without another collective. Outside the window every rank gathers every
// rank's dnrm2 (scale, ssq) pair and folds them in rank order, so every
// rank computes the same scaled norm.
func GlobalNorm2(c *Comm, a *DistVector) float64 {
	uu := vec.Dot(a.Data, a.Data)
	if uu == 0 {
		if scale, _ := vec.ScaledNorm2(a.Data); scale != 0 {
			uu = math.NaN()
		}
	}
	if uu = c.AllReduceSum(uu); uu == 0 || vec.InNormWindow(uu) {
		return math.Sqrt(uu)
	}
	pairs := make([]float64, 2*c.Size())
	scale, ssq := vec.ScaledNorm2(a.Data)
	c.AllGather(pairs, []float64{scale, ssq}, 2*c.Rank())
	scale, ssq = 0, 1
	for r := 0; r < len(pairs); r += 2 {
		scale, ssq = vec.CombineNorm2(scale, ssq, pairs[r], pairs[r+1])
	}
	return scale * math.Sqrt(ssq)
}

// VerifyGlobal checks the global checksum relationship of v for weight k:
// it all-reduces the locally recomputed partial weighted sum and the
// locally carried partial checksum and compares them with the engine
// tolerance rule. Every rank returns the same verdict. A pass re-anchors
// the carried partial v.S[k] to the sum just measured — what recomputing it
// would store, without the second pass over the block; a failure leaves it
// untouched for diagnosis.
func VerifyGlobal(c *Comm, v *DistVector, w checksum.Weight, k int, offset, n int, tol checksum.Tol) bool {
	sum, absSum := localSums(w, offset, v.Data)
	gSum := c.AllReduceSum(sum)
	gAbs := c.AllReduceSum(absSum)
	gS := c.AllReduceSum(v.S[k])
	if !tol.ConsistentBound(gSum-gS, n, gAbs, 0) {
		return false
	}
	v.S[k] = sum
	return true
}
