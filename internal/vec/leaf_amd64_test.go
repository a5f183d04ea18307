//go:build !purego

package vec

import "testing"

// TestLeafDispatch names the leaf this host's tests and goldens ran on —
// verify.sh prints the line — and, where that is the AVX body, runs the leaf
// tests once more with useAVX off: the branch an amd64 without AVX, or under
// an OS that does not save the YMM registers, takes on every call.
func TestLeafDispatch(t *testing.T) {
	if !useAVX {
		t.Log("leaf: portable lanes (no AVX on this CPU or OS; the AVX body did not run)")
		return
	}
	t.Log("leaf: AVX, four blocks in lockstep (and once more below with useAVX off: portable lanes)")
	useAVX = false
	defer func() { useAVX = true }()
	t.Run("LeafKernels", TestLeafKernelsMatchPortableAndSpec)
	t.Run("RangeFillers", TestRangeFillersMatchPortableAndSpec)
	t.Run("PairIsOnesWeighted", TestSumAbsIsTheOnesWeightedPair)
	t.Run("LeavesFold", TestLeavesFoldToDotAbs)
	t.Run("NoAllocs", TestChecksumReductionsDoNotAllocate)
}
