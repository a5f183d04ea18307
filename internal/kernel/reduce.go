package kernel

import "newsum/internal/vec"

// The reductions below all follow the same shape: workers fill disjoint
// ranges of per-block leaf partials (the exact leaves the serial
// reductions in internal/vec compute), then a single combiner folds them
// with the serial pairwise tree. The result is bitwise-identical to the
// serial call for any worker count; see the package doc. Each call
// stores its operands in the pool's op descriptor and launches — no
// closures, no per-call allocation.

// Dot returns u·v, bitwise-equal to vec.Dot.
func (p *Pool) Dot(u, v []float64) float64 {
	if len(u) != len(v) {
		panic("kernel: length mismatch in Dot")
	}
	if p == nil || len(u) < minParallel {
		return vec.Dot(u, v)
	}
	nb := vec.Blocks(len(u))
	part := p.grow1(nb)
	p.op = op{kind: opDot, nb: nb, x: u, y: v, out1: part}
	p.launch()
	return vec.PairwiseSum(part)
}

// DotAbs returns u·v and Σ|u_i·v_i|, bitwise-equal to vec.DotAbs.
func (p *Pool) DotAbs(u, v []float64) (sum, abs float64) {
	if len(u) != len(v) {
		panic("kernel: length mismatch in DotAbs")
	}
	if p == nil || len(u) < minParallel {
		return vec.DotAbs(u, v)
	}
	nb := vec.Blocks(len(u))
	sums, abss := p.grow2(nb)
	p.op = op{kind: opDotAbs, nb: nb, x: u, y: v, out1: sums, out2: abss}
	p.launch()
	return vec.PairwiseSum(sums), vec.PairwiseSum(abss)
}

// SumAbs returns Σu_i and Σ|u_i| — the verification pair of the all-ones
// checksum — bitwise-equal to vec.SumAbs, and so to WeightedSumAbs with a
// weight that is 1 everywhere.
func (p *Pool) SumAbs(u []float64) (sum, abs float64) {
	if p == nil || len(u) < minParallel {
		return vec.SumAbs(u)
	}
	nb := vec.Blocks(len(u))
	sums, abss := p.grow2(nb)
	p.op = op{kind: opSumAbs, nb: nb, x: u, out1: sums, out2: abss}
	p.launch()
	return vec.PairwiseSum(sums), vec.PairwiseSum(abss)
}

// WeightedSumAbs returns Σ w(i)·u_i and Σ|w(i)·u_i| — the checksum
// verifier's (measured sum, round-off scale) pair — bitwise-equal to
// vec.WeightedSumAbs.
func (p *Pool) WeightedSumAbs(u []float64, w func(i int) float64) (sum, abs float64) {
	if p == nil || len(u) < minParallel {
		return vec.WeightedSumAbs(u, w)
	}
	nb := vec.Blocks(len(u))
	sums, abss := p.grow2(nb)
	p.op = op{kind: opWeightedSumAbs, nb: nb, x: u, w: w, out1: sums, out2: abss}
	p.launch()
	return vec.PairwiseSum(sums), vec.PairwiseSum(abss)
}

// Norm2 returns ‖u‖₂, bitwise-equal to vec.Norm2: the pooled dot u·u under
// the serial norm's guard, which sends a u·u outside vec.InNormWindow to
// dnrm2's scaled loop on the calling goroutine.
func (p *Pool) Norm2(u []float64) float64 {
	return vec.Norm2FromDot(u, p.Dot(u, u))
}
