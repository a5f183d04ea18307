//go:build !amd64 || purego

package vec

// LeafKernel names the linked (Σ, Σ|·|) leaf for full blocks; newsum-bench
// -exp kernels prints it.
const LeafKernel = "portable"

// dotAbsLeaf is the leaf of u·v and Σ|u_i·v_i| over one block's elements.
//
//hot:loop leaf of every checksum row reduction
func dotAbsLeaf(u, v []float64) (sum, abs float64) { return dotAbsLanes(u, v) }

// sumAbsLeaf is the leaf of Σu_i and Σ|u_i| over one block's elements.
//
//hot:loop leaf of every all-ones verification
func sumAbsLeaf(u []float64) (sum, abs float64) { return sumAbsLanes(u) }
