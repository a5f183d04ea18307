//go:build !amd64 || purego

package vec

// dotAbsLeaf is the leaf of u·v and Σ|u_i·v_i| over one block's elements.
//
//hot:loop leaf of every checksum row reduction
func dotAbsLeaf(u, v []float64) (sum, abs float64) { return dotAbsLanes(u, v) }

// sumAbsLeaf is the leaf of Σu_i and Σ|u_i| over one block's elements.
//
//hot:loop leaf of every all-ones verification
func sumAbsLeaf(u []float64) (sum, abs float64) { return sumAbsLanes(u) }

// norm2Leaf is the (scale, ssq) leaf of the norm over one block's elements.
//
//hot:loop leaf of every norm
func norm2Leaf(u []float64) (scale, ssq float64) { return norm2Loop(u) }

// axpbyPacked has no packed body to run here: the prefix it covers is
// empty and the callers' Go loops take every element.
func axpbyPacked(dst []float64, alpha float64, x []float64, beta float64, y []float64) int {
	return 0
}
