// Package checksum implements the paper's error-preserving checksum encoding
// for matrix-vector multiplication (§4), the triple-checksum single-error
// locate-and-correct mechanism (§5.2), and — for baseline comparison — the
// traditional Huang–Abraham column-checksum encoding (§2).
//
// The central objects are checksum weight vectors c (represented functionally
// so c2 = (1..n) and c3 = (1, 1/2, ..., 1/n) never need materializing), the
// encoded matrix checksum rows checksum(A) = cᵀA − d·cᵀ, and the O(n)/O(1)
// update rules that carry vector checksums through MVM, VLO and PCO
// operations without touching the operations themselves (Fig. 2(d)).
package checksum

import (
	"math"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Weight is a checksum vector c given functionally: At(i) returns c_{i+1},
// the weight of the element with zero-based index i. All weights must be
// non-zero everywhere (the paper requires c to have all non-zero entries).
type Weight struct {
	Name string
	At   func(i int) float64
}

// Ones is c1 = (1, 1, ..., 1)ᵀ, the plain-sum checksum.
var Ones = Weight{Name: "ones", At: func(int) float64 { return 1 }}

// IsOnes reports whether w is c1. Its weighted sums are plain sums — 1·x_i
// is exact, so Σx_i and Σ|x_i| are bitwise cᵀx and Σ|c_i·x_i| — which lets
// every verifier (Apply and ApplyAbs here, the engines in internal/core and
// internal/par) skip the call per element on its hottest reduction.
func (w Weight) IsOnes() bool { return w.Name == Ones.Name }

// Linear is c2 = (1, 2, ..., n)ᵀ, the position-weighted checksum used to
// locate single errors (§5.2).
var Linear = Weight{Name: "linear", At: func(i int) float64 { return float64(i + 1) }}

// Harmonic is c3 = (1, 1/2, ..., 1/n)ᵀ, the third checksum that separates
// a genuine single error from the "fake correction" multi-error case via
// the arithmetic-mean/harmonic-mean identity (§5.2).
var Harmonic = Weight{Name: "harmonic", At: func(i int) float64 { return 1 / float64(i+1) }}

// Single is the weight set of the basic online ABFT scheme (Algorithm 1),
// which only needs detection.
var Single = []Weight{Ones}

// Double adds the locating checksum; it can locate-and-correct one error but
// is vulnerable to fake corrections (§5.2).
var Double = []Weight{Ones, Linear}

// Triple is the weight set of the two-level scheme (Algorithm 2): detect,
// discriminate single vs multiple, locate, correct.
var Triple = []Weight{Ones, Linear, Harmonic}

// Apply returns cᵀx for the weight, accumulated with vec's fixed-block
// pairwise summation so the measured sum the verifier compares against the
// carried checksum has O((Block + log n)·ε) round-off instead of O(n·ε) —
// the near-τ band stays clear of accumulation noise at large n.
func (w Weight) Apply(x []float64) float64 {
	if w.IsOnes() {
		return vec.Sum(x)
	}
	return vec.WeightedSum(x, w.At)
}

// ApplyAbs returns cᵀx and Σ|c_i·x_i| in one blocked pairwise pass — the
// (measured sum, round-off scale) pair every verification needs.
func (w Weight) ApplyAbs(x []float64) (sum, abs float64) {
	if w.IsOnes() {
		return vec.SumAbs(x)
	}
	return vec.WeightedSumAbs(x, w.At)
}

// Checksums returns cᵀx for each weight, i.e. the full checksum state of a
// consistent vector.
func Checksums(x []float64, weights []Weight) []float64 {
	s := make([]float64, len(weights))
	for k, w := range weights {
		s[k] = w.Apply(x)
	}
	return s
}

// PracticalD returns a numerically friendly decoupling scalar: a power of
// two just above ‖A‖∞, capped at 64.
//
// The cap matters twice over. The MVM checksum update's round-off is
// amplified by d (the d·cᵀu terms cancel analytically but not in floating
// point), and — more subtly — every PCO *divides* a carried inconsistency
// by d (Lemma 1), so an error entering through a preconditioner solve
// reaches the verified vectors attenuated by up to d². With the Lemma 2
// worst-case bound (d > n·‖c‖∞·‖A‖∞/min|c|, which rules out cᵀA_e = d·cᵀ
// for any row subset A_e) that attenuation drives genuine error signals
// below any honest round-off threshold; a small d keeps them detectable
// while the running η bounds (see ConsistentBound) keep large-n
// verification sound. A caller who wants Lemma 2's guarantee anyway passes
// a power of two above the bound to NewEncoding.
func PracticalD(a *sparse.CSR) float64 { return practicalD(a.NormInf()) }

// practicalD is PracticalD of a matrix whose ‖A‖∞ is normA.
func practicalD(normA float64) float64 {
	if normA <= 0 {
		normA = 1
	}
	d := math.Exp2(math.Ceil(math.Log2(normA)) + 1)
	if d > 64 {
		d = 64
	}
	if d < 2 {
		d = 2
	}
	return d
}
