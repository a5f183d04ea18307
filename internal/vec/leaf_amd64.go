//go:build !purego

package vec

// useAVX is whether the full blocks of a (Σ, Σ|·|) range run in
// leaf_amd64.s: the CPU has AVX and the OS saves its registers, asked once.
// It selects between two implementations of one arithmetic and is not an
// input to any result; only the package's tests write it, to run both.
var useAVX = hasAVX()

func hasAVX() bool

// dotAbsAVX and sumAbsAVX store the leaves of `blocks` consecutive full
// blocks starting at u (and v), four blocks in lockstep and the rest one at
// a time. They read exactly blocks·Block elements of each operand and write
// exactly blocks elements of sum and of abs; the callers below reslice to
// those lengths first, so Go has checked every one.

//go:noescape
func dotAbsAVX(sum, abs, u, v *float64, blocks int)

//go:noescape
func sumAbsAVX(sum, abs, u *float64, blocks int)

// DotAbsBlocks stores the (Σ, Σ|·|) leaves of blocks lo, lo+1, … of u·v,
// one per element of sum and abs: sum[k], abs[k] are DotAbsBlock(u, v, lo+k),
// bit for bit. The full blocks go to the AVX body where there is one, the
// ragged last block and everything else to the portable lanes.
func DotAbsBlocks(sum, abs, u, v []float64, lo int) {
	abs, v = abs[:len(sum)], v[:len(u)]
	k := 0
	if full := min(len(sum), len(u)/Block-lo); useAVX && full > 0 {
		k = full
		uu, vv := u[lo*Block:(lo+k)*Block], v[lo*Block:(lo+k)*Block]
		dotAbsAVX(&sum[0], &abs[0], &uu[0], &vv[0], k)
	}
	dotAbsLanesBlocks(sum[k:], abs[k:], u, v, lo+k)
}

// SumAbsBlocks stores the (Σ, Σ|·|) leaves of blocks lo, lo+1, … of Σu_i:
// DotAbsBlocks against the all-ones vector, whose products are exact.
func SumAbsBlocks(sum, abs, u []float64, lo int) {
	abs = abs[:len(sum)]
	k := 0
	if full := min(len(sum), len(u)/Block-lo); useAVX && full > 0 {
		k = full
		uu := u[lo*Block : (lo+k)*Block]
		sumAbsAVX(&sum[0], &abs[0], &uu[0], k)
	}
	sumAbsLanesBlocks(sum[k:], abs[k:], u, lo+k)
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
func axpbyPacked(dst []float64, alpha float64, x []float64, beta float64, y []float64) int {
	k := len(dst) &^ 3
	if k == 0 {
		return 0
	}
	x, y = x[:k], y[:k]
	axpbyQuads(&dst[0], &x[0], &y[0], k/4, alpha, beta)
	return k
}
