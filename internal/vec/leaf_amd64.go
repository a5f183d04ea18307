//go:build !purego

package vec

// dotAbs128 and sumAbs128 are the full-block leaves in leaf_amd64.s: SSE2
// only, which every amd64 has, so there is nothing to detect or dispatch.
// The array-pointer parameters make the callers' slice-to-array conversions
// the length check; the assembly reads exactly Block elements.

//go:noescape
func dotAbs128(u, v *[Block]float64) (sum, abs float64)

//go:noescape
func sumAbs128(u *[Block]float64) (sum, abs float64)

// dotAbsLeaf is the leaf of u·v and Σ|u_i·v_i| over one block's elements.
//
//hot:loop leaf of every checksum row reduction
func dotAbsLeaf(u, v []float64) (sum, abs float64) {
	if len(u) == Block {
		return dotAbs128((*[Block]float64)(u), (*[Block]float64)(v))
	}
	return dotAbsLanes(u, v)
}

// sumAbsLeaf is the leaf of Σu_i and Σ|u_i| over one block's elements.
//
//hot:loop leaf of every all-ones verification
func sumAbsLeaf(u []float64) (sum, abs float64) {
	if len(u) == Block {
		return sumAbs128((*[Block]float64)(u))
	}
	return sumAbsLanes(u)
}

// norm2128 is Norm2Block's full-block leaf in leaf_amd64.s: norm2Loop's
// operations in norm2Loop's order, the divide and the square taken two
// elements at a time.
//
//go:noescape
func norm2128(u *[Block]float64) (scale, ssq float64)

// norm2Leaf is the (scale, ssq) leaf of the norm over one block's elements.
//
//hot:loop leaf of every norm
func norm2Leaf(u []float64) (scale, ssq float64) {
	if len(u) == Block {
		return norm2128((*[Block]float64)(u))
	}
	return norm2Loop(u)
}

// axpbyQuads computes dst[i] = alpha·x[i] + beta·y[i] for i < 4·quads in
// leaf_amd64.s, products rounded before the sum as the Go loops round them.
//
//go:noescape
func axpbyQuads(dst, x, y *float64, quads int, alpha, beta float64)

// axpbyPacked computes dst[i] = alpha·x[i] + beta·y[i] over the longest
// prefix whose length is a multiple of four and returns that length; the
// caller's Go loop takes the rest. 1·v is v for every v, so with alpha or
// beta 1 it is also Xpby's and Axpy's prefix. The reslices are the length
// checks: the assembly reads and writes exactly k elements of each.
//
//hot:loop packed prefix of Axpy, Axpby and Xpby
func axpbyPacked(dst []float64, alpha float64, x []float64, beta float64, y []float64) int {
	k := len(dst) &^ 3
	if k == 0 {
		return 0
	}
	x, y = x[:k], y[:k]
	axpbyQuads(&dst[0], &x[0], &y[0], k/4, alpha, beta)
	return k
}
