//go:build !purego

package vec

// LeafKernel names the linked (Σ, Σ|·|) leaf for full blocks; newsum-bench
// -exp kernels prints it.
const LeafKernel = "sse2"

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
