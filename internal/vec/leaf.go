package vec

import "math"

// The (Σ, Σ|·|) leaf. Every checksum reduction in the repo — serial, pooled,
// and fused into an SpMV or triangular-solve sweep through Leaves.FillBlocks
// — takes its per-block partials from the range fillers DotAbsBlocks and
// SumAbsBlocks, in one fixed order: lane j accumulates the block's elements
// i ≡ j (mod 4) left to right from +0, and the block's value is
// (l0+l2)+(l1+l3). Four independent chains of at most Block/4 adds replace
// one chain of Block, and the worst-case error bound of a leaf only
// tightens. On an amd64 with AVX the full blocks of a range run in
// leaf_amd64.s, a block's four lanes in one register and four blocks side
// by side, so the loop does not wait on an add's latency at all; ragged
// tail blocks, an amd64 without AVX, other architectures and -tags purego
// run the Go leaves below. Both produce the same bits, so which one runs is
// invisible to every caller; docs/kernels.md "Reduction contract" has the
// order, why the solver's dot (and so Norm2, which is √(u·u)) keeps its
// own — left to right — and how that is filled without waiting on it.

// dotAbsLanes is the portable leaf of u·v and Σ|u_i·v_i|. len(v) must be at
// least len(u). The product is spelled float64(·) so that no platform may
// fuse it into the add that follows (the Go spec lets arm64, ppc64, s390x
// and GOAMD64=v3 do so otherwise): the assembly rounds the product, so the
// Go must.
func dotAbsLanes(u, v []float64) (sum, abs float64) {
	v = v[:len(u)]
	var s0, s1, s2, s3, a0, a1, a2, a3 float64
	for len(u) >= 4 {
		t0 := float64(u[0] * v[0])
		t1 := float64(u[1] * v[1])
		t2 := float64(u[2] * v[2])
		t3 := float64(u[3] * v[3])
		s0 += t0
		s1 += t1
		s2 += t2
		s3 += t3
		a0 += math.Abs(t0)
		a1 += math.Abs(t1)
		a2 += math.Abs(t2)
		a3 += math.Abs(t3)
		u, v = u[4:], v[4:]
	}
	if len(u) > 0 {
		t := float64(u[0] * v[0])
		s0 += t
		a0 += math.Abs(t)
	}
	if len(u) > 1 {
		t := float64(u[1] * v[1])
		s1 += t
		a1 += math.Abs(t)
	}
	if len(u) > 2 {
		t := float64(u[2] * v[2])
		s2 += t
		a2 += math.Abs(t)
	}
	return (s0 + s2) + (s1 + s3), (a0 + a2) + (a1 + a3)
}

// sumAbsLanes is the portable leaf of Σu_i and Σ|u_i|: dotAbsLanes against
// the all-ones vector, whose products are exact.
func sumAbsLanes(u []float64) (sum, abs float64) {
	var s0, s1, s2, s3, a0, a1, a2, a3 float64
	for len(u) >= 4 {
		s0 += u[0]
		s1 += u[1]
		s2 += u[2]
		s3 += u[3]
		a0 += math.Abs(u[0])
		a1 += math.Abs(u[1])
		a2 += math.Abs(u[2])
		a3 += math.Abs(u[3])
		u = u[4:]
	}
	if len(u) > 0 {
		s0 += u[0]
		a0 += math.Abs(u[0])
	}
	if len(u) > 1 {
		s1 += u[1]
		a1 += math.Abs(u[1])
	}
	if len(u) > 2 {
		s2 += u[2]
		a2 += math.Abs(u[2])
	}
	return (s0 + s2) + (s1 + s3), (a0 + a2) + (a1 + a3)
}

// dotAbsLanesBlocks is DotAbsBlocks with every leaf taken by dotAbsLanes.
func dotAbsLanesBlocks(sum, abs, u, v []float64, lo int) {
	for k := range sum {
		l, h := blockBounds(len(u), lo+k)
		sum[k], abs[k] = dotAbsLanes(u[l:h], v[l:h])
	}
}

// sumAbsLanesBlocks is SumAbsBlocks with every leaf taken by sumAbsLanes.
func sumAbsLanesBlocks(sum, abs, u []float64, lo int) {
	for k := range sum {
		l, h := blockBounds(len(u), lo+k)
		sum[k], abs[k] = sumAbsLanes(u[l:h])
	}
}
