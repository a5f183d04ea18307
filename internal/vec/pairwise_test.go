package vec

import (
	"math"
	"math/rand"
	"testing"
)

// naiveSum is the left-to-right accumulation the package used before the
// blocked-pairwise rewrite; kept here as the regression reference.
func naiveSum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// pairwise is the reduction tree as plain recursion over the block-index
// range [lo, hi), split at mid = lo + ceil((hi-lo)/2), with a call per
// leaf: what PairwiseSum, the subtree scratches and the range fillers must
// reproduce, bit for bit.
func pairwise(lo, hi int, leaf func(b int) float64) float64 {
	if hi <= lo {
		return 0
	}
	if hi-lo == 1 {
		return leaf(lo)
	}
	mid := lo + (hi-lo+1)/2
	return pairwise(lo, mid, leaf) + pairwise(mid, hi, leaf)
}

// pairwise2 is pairwise for the pair (value, |value|).
func pairwise2(lo, hi int, leaf func(b int) (float64, float64)) (float64, float64) {
	if hi <= lo {
		return 0, 0
	}
	if hi-lo == 1 {
		return leaf(lo)
	}
	mid := lo + (hi-lo+1)/2
	s1, a1 := pairwise2(lo, mid, leaf)
	s2, a2 := pairwise2(mid, hi, leaf)
	return s1 + s2, a1 + a2
}

func naiveDot(u, v []float64) float64 {
	var s float64
	for i := range u {
		s += u[i] * v[i]
	}
	return s
}

// illConditioned builds the n = 2²⁰ adversarial input: a +2⁵⁴ spike every
// 2¹⁵ elements with a −2⁵⁴ spike half a period later, each spike followed
// by 127 zeros (so each spike owns one 128-element block by itself), and
// every remaining element exactly 1. It returns the input and the exact
// sum (the count of ones — an integer, so the true value is known without
// any floating-point summation at all).
func illConditioned(n int) (x []float64, exact float64) {
	const period = 1 << 15
	x = make([]float64, n)
	ones := 0
	for i := range x {
		switch {
		case i%period == 0:
			x[i] = math.Ldexp(1, 54)
		case i%period == period/2:
			x[i] = -math.Ldexp(1, 54)
		case i%period < 128 || (i%period >= period/2 && i%period < period/2+128):
			x[i] = 0
		default:
			x[i] = 1
			ones++
		}
	}
	return x, float64(ones)
}

// TestSumIllConditionedRegression pins the accuracy property the blocked
// pairwise rewrite exists for. On this input the spikes cancel exactly in
// the pairwise tree (each one sits alone in its block; partial sums stay
// on multiples of ulp(2⁵⁴)), so Sum must be EXACT. Left-to-right
// accumulation instead absorbs every +1 that arrives while the running
// sum sits at 2⁵⁴ (1 < ulp(2⁵⁴)/2 = 2), losing about half the true sum —
// far more than the 6 significant digits the issue cites.
func TestSumIllConditionedRegression(t *testing.T) {
	const n = 1 << 20
	x, exact := illConditioned(n)

	if got := Sum(x); got != exact {
		t.Fatalf("Sum: got %.17g, want exact %.17g (error %.3e)", got, exact, math.Abs(got-exact))
	}

	naive := naiveSum(x)
	relErr := math.Abs(naive-exact) / exact
	if relErr < 1e-6 {
		t.Fatalf("reference naive sum unexpectedly accurate (rel err %.3e); the regression input has gone stale", relErr)
	}
	t.Logf("naive rel err %.3e (loses %d digits); pairwise exact", relErr, int(-math.Log10(relErr))+16)

	// Dot and WeightedSum route through the same blocked tree: with a
	// unit second operand they must reproduce the exact sum too.
	ones := make([]float64, n)
	Fill(ones, 1)
	if got := Dot(x, ones); got != exact {
		t.Fatalf("Dot(x, 1): got %.17g, want exact %.17g", got, exact)
	}
	if got := WeightedSum(x, func(int) float64 { return 1 }); got != exact {
		t.Fatalf("WeightedSum(x, 1): got %.17g, want exact %.17g", got, exact)
	}
}

// TestPairwiseMatchesNaiveOnBenignInput checks the rewrite did not change
// behavior where naive summation is already fine: on benign random input
// the two accumulations agree to a few ulps of the running magnitude.
func TestPairwiseMatchesNaiveOnBenignInput(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 127, 128, 129, 1000, 4096, 65537} {
		u := make([]float64, n)
		v := make([]float64, n)
		var absSum float64
		for i := range u {
			u[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
			absSum += math.Abs(u[i])
		}
		if got, want := Sum(u), naiveSum(u); math.Abs(got-want) > 1e-12*absSum {
			t.Fatalf("n=%d: Sum %.17g vs naive %.17g", n, got, want)
		}
		if got, want := Dot(u, v), naiveDot(u, v); math.Abs(got-want) > 1e-12*float64(n) {
			t.Fatalf("n=%d: Dot %.17g vs naive %.17g", n, got, want)
		}
	}
}

// TestSumWithinDepthBoundUnderMisalignment: prepending zeros shifts every
// block boundary, so the spikes no longer sit alone in their leaves and
// exact cancellation is off the table. The accuracy contract that remains
// — and that the checksum layer's η bounds are built on — is the
// accumulation-depth bound |err| ≤ (Block + 2 + ⌈log₂ blocks⌉)·ε·Σ|xᵢ|,
// for every alignment. Naive summation violates it by ~12 orders here.
func TestSumWithinDepthBoundUnderMisalignment(t *testing.T) {
	base, exact := illConditioned(1 << 16)
	var absSum float64
	for _, v := range base {
		absSum += math.Abs(v)
	}
	const eps = 0x1p-53
	depth := float64(Block + 2)
	for b := Blocks(1 << 17); b > 1; b = (b + 1) / 2 {
		depth++
	}
	bound := depth * eps * absSum
	for _, pad := range []int{1, 63, 127} {
		x := append(make([]float64, pad), base...) // pad zeros shift alignment
		if got := Sum(x); math.Abs(got-exact) > bound {
			t.Fatalf("pad=%d: got %.17g, want %.17g ± %.3g", pad, got, exact, bound)
		}
	}
}

// fusedSizes straddle the block boundary, the pool's serial cutover and a
// ragged last block; the fused-kernel tests in sparse, precond and kernel
// sweep the same set.
var fusedSizes = []int{1, 127, 128, 129, 4095, 4096, 4097, 10000}

func mixedVec(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		// Mixed magnitudes and signs, so any change of summation order
		// changes bits.
		u[i] = (rng.Float64() - 0.5) * math.Exp2(float64(rng.Intn(40)-20))
	}
	return u
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestSumAbsIsTheOnesWeightedPair: 1·u_i is exact, so the plain (Σ, Σ|·|)
// leaf must reproduce WeightedSumAbs under the all-ones weight bit for bit
// — signed zeros included — which is what lets a verifier swap it in.
func TestSumAbsIsTheOnesWeightedPair(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	ones := func(int) float64 { return 1 }
	for _, n := range append([]int{0}, fusedSizes...) {
		u := mixedVec(rng, n)
		if n > 2 {
			u[0], u[n/2] = math.Copysign(0, -1), 0
		}
		gs, ga := SumAbs(u)
		ws, wa := WeightedSumAbs(u, ones)
		if !sameBits(gs, ws) || !sameBits(ga, wa) {
			t.Fatalf("n=%d: SumAbs = (%x, %x), weighted (%x, %x)", n, gs, ga, ws, wa)
		}
		for b := 0; b < Blocks(n); b++ {
			gs, ga := SumAbsBlock(u, b)
			ws, wa := WeightedSumAbsBlock(u, ones, b)
			if !sameBits(gs, ws) || !sameBits(ga, wa) {
				t.Fatalf("n=%d block %d: leaf = (%x, %x), weighted (%x, %x)", n, b, gs, ga, ws, wa)
			}
		}
	}
}

// TestLeavesFoldToDotAbs: in whatever order a sweep visits the blocks and
// however it cuts them into ranges, every leaf is DotAbsBlock and the fold
// is DotAbs, bit for bit — one and three reductions at a time.
func TestLeavesFoldToDotAbs(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, n := range fusedSizes {
		v := mixedVec(rng, n)
		for _, k := range []int{1, 3} {
			rows := make([][]float64, k)
			for j := range rows {
				rows[j] = mixedVec(rng, n)
			}
			lv := NewLeaves(k, n)
			for _, width := range []int{1, 3, 64} {
				// Ranges of up to width blocks, visited in a random order.
				for _, r := range rng.Perm((Blocks(n) + width - 1) / width) {
					lv.FillBlocks(rows, v, r*width, min((r+1)*width, Blocks(n)))
				}
				lv.Fold()
				for j := range rows {
					for b := 0; b < Blocks(n); b++ {
						ws, wa := DotAbsBlock(rows[j], v, b)
						if !sameBits(lv.leafSum[j][b], ws) || !sameBits(lv.leafAbs[j][b], wa) {
							t.Fatalf("n=%d k=%d row %d: leaf %d differs from DotAbsBlock", n, k, j, b)
						}
					}
					ws, wa := DotAbs(rows[j], v)
					if !sameBits(lv.Sum[j], ws) || !sameBits(lv.Abs[j], wa) {
						t.Fatalf("n=%d k=%d row %d: leaves fold to (%x, %x), DotAbs (%x, %x)",
							n, k, j, lv.Sum[j], lv.Abs[j], ws, wa)
					}
				}
			}
		}
	}
}
