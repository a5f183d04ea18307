//go:build !amd64 || purego

package vec

// DotAbsBlocks stores the (Σ, Σ|·|) leaves of blocks lo, lo+1, … of u·v,
// one per element of sum and abs: sum[k], abs[k] are DotAbsBlock(u, v, lo+k).
func DotAbsBlocks(sum, abs, u, v []float64, lo int) {
	dotAbsLanesBlocks(sum, abs[:len(sum)], u, v[:len(u)], lo)
}

// SumAbsBlocks stores the (Σ, Σ|·|) leaves of blocks lo, lo+1, … of Σu_i:
// DotAbsBlocks against the all-ones vector, whose products are exact.
func SumAbsBlocks(sum, abs, u []float64, lo int) {
	sumAbsLanesBlocks(sum, abs[:len(sum)], u, lo)
}

// axpbyPacked has no packed body to run here: the prefix it covers is
// empty and the callers' Go loops take every element.
func axpbyPacked(dst []float64, alpha float64, x []float64, beta float64, y []float64) int {
	return 0
}
