package par

import (
	"newsum/internal/checksum"
	"newsum/internal/core"
)

// ForwardDiagnose re-measures all three checksum relations of v through
// all-reduces, triages them (checksum.Triage, with no η: par carries none)
// and repairs v in place; see core/forward.go. It requires the Triple
// weight set (Options.ForwardRecovery arranges that); with any other weight
// set it degrades to Failed and the caller rolls back. Every verdict
// derives from all-reduced values, so it is replicated. The owner rank
// applies (and, on a failed confirmation, reverts) the correction; the
// barrier after each write keeps the team's view coherent.
func (e *rankEngine) ForwardDiagnose(v *core.Vec) (checksum.Outcome, checksum.TripleDiagnosis) {
	if len(e.weights) != len(checksum.Triple) {
		return checksum.Failed, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	var absSums, deltas [3]float64
	for k := range e.weights {
		gSum, gAbs, gS := e.globalSums(v, k)
		deltas[k], absSums[k] = gSum-gS, gAbs
	}
	out, diag := checksum.Triage(deltas, absSums, [3]float64{}, e.n, e.tol)
	switch out {
	case checksum.Clean, checksum.Reanchored:
		e.Reanchor(v)
		return out, diag
	case checksum.Failed:
		return out, diag
	}
	// The owner saves the original value so a rejected repair reverts
	// bit-exactly: subtract-then-add is not an exact round-trip when the
	// correction dwarfs the element.
	var orig float64
	if diag.Pos >= e.lo && diag.Pos < e.hi {
		orig = v.Data[diag.Pos-e.lo]
		v.Data[diag.Pos-e.lo] -= diag.Magnitude
	}
	e.c.Barrier() // correction visible before the confirmation probes
	for k := range e.weights {
		gSum, gAbs, gS := e.globalSums(v, k)
		if !e.tol.ConsistentBound(gSum-gS, e.n, gAbs, 0) {
			if diag.Pos >= e.lo && diag.Pos < e.hi {
				v.Data[diag.Pos-e.lo] = orig
			}
			e.c.Barrier() // revert visible before anyone reads v
			return checksum.Rejected, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
		}
	}
	e.Reanchor(v)
	e.stats.Corrections++
	return out, diag
}
