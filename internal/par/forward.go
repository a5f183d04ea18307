package par

import (
	"newsum/internal/checksum"
	"newsum/internal/core"
)

// This file is the distributed forward-recovery tier (ROADMAP item 5, after
// Fasi–Langou–Robert–Uçar, arXiv:1511.04478), mirroring
// internal/core/forward.go: when an outer-level verification fires under
// Options.ForwardRecovery, the team re-measures all three §5.2 checksum
// relations of the suspect vector through all-reduces and repairs it in
// place when the triple-checksum analysis localizes the corruption. Every
// verdict derives from all-reduced values, so the classification — and
// therefore the control flow — is identical on every rank; only the owner
// rank touches data, followed by a barrier.

// forwardOutcome classifies one attempt to repair an outer-level distributed
// vector in place after a failed verification. It is a local copy of core's
// unexported enum with the same meaning.
type forwardOutcome int

const (
	// forwardClean: every relation held on re-measurement — the triggering
	// probe fired on threshold-level noise; the checksums were re-anchored.
	forwardClean forwardOutcome = iota
	// forwardReanchored: exactly one relation was broken, which no data
	// error can produce — the corrupted site was the carried checksum
	// state; it was re-derived from the (trustworthy) data.
	forwardReanchored
	// forwardCorrected: the §5.2 single-error test passed, the owner rank
	// corrected the located element, and the post-repair confirmation
	// verified all three relations globally.
	forwardCorrected
	// forwardRejected: a correction was applied but the confirmation
	// failed — a fake-correction candidate, undone; rollback required.
	forwardRejected
	// forwardFailed: localization failed (multiple errors); rollback
	// required (the caller may still reconstruct the vector from clean
	// state where an identity such as r = b − A·x is available).
	forwardFailed
)

// globalSums all-reduces the weight-k checksum probe of v: the global
// weighted sum, its absolute-value companion for the threshold, and the
// global carried checksum.
func (e *rankEngine) globalSums(v *DistVector, k int) (gSum, gAbs, gS float64) {
	sum, abs := localSums(e.weights[k], e.lo, v.Data)
	return e.c.AllReduceSum(sum), e.c.AllReduceSum(abs), e.c.AllReduceSum(v.S[k])
}

// withinDrift reports whether every checksum inconsistency is within the
// widened core.DriftFactor window; see core/forward.go for the rationale.
func (e *rankEngine) withinDrift(deltas, absSums [3]float64) bool {
	th := e.tol.Theta
	if th <= 0 {
		th = checksum.DefaultTheta
	}
	wide := checksum.Tol{Theta: core.DriftFactor * th}
	for k := range e.weights {
		if !wide.ConsistentAbs(deltas[k], e.n, absSums[k]) {
			return false
		}
	}
	return true
}

// forwardDiagnose re-measures all three checksum relations of v through
// all-reduces and attempts a replicated in-place repair; see
// core/forward.go for the classification rationale. It requires the Triple
// weight set (Options.ForwardRecovery arranges that); with any other weight
// set it degrades to forwardFailed and the caller rolls back. The owner
// rank applies (and, on a failed confirmation, reverts) the correction; the
// barrier after each write keeps the team's view coherent.
func (e *rankEngine) forwardDiagnose(v *DistVector) (forwardOutcome, checksum.TripleDiagnosis) {
	if len(e.weights) != len(checksum.Triple) {
		return forwardFailed, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	var absSums, deltas [3]float64
	inconsistent, bad := 0, 0
	for k := range e.weights {
		gSum, gAbs, gS := e.globalSums(v, k)
		deltas[k] = gSum - gS
		absSums[k] = gAbs
		if !e.tol.ConsistentAbs(deltas[k], e.n, gAbs) {
			inconsistent++
			bad = k
		}
	}
	switch inconsistent {
	case 0:
		v.LocalChecksums(e.weights, e.lo)
		return forwardClean, checksum.TripleDiagnosis{Kind: checksum.NoError}
	case 1:
		v.LocalChecksums(e.weights, e.lo)
		return forwardReanchored, checksum.TripleDiagnosis{
			Kind: checksum.SingleError, Pos: -1, Magnitude: deltas[bad],
		}
	}
	// Amplified-drift screen, mirroring core.DriftFactor: a fault-polluted
	// recurrence scalar multiplies the usual update noise, which can push
	// every relation just past the threshold at once with no data error
	// present. Localizing such noise would manufacture a fake single-error
	// position, so when every δ is still within DriftFactor of the widened
	// threshold the data is accepted and the checksums re-anchored. The
	// screen evaluates all-reduced values only, so it is replicated.
	if e.withinDrift(deltas, absSums) {
		v.LocalChecksums(e.weights, e.lo)
		return forwardReanchored, checksum.TripleDiagnosis{
			Kind: checksum.SingleError, Pos: -1, Magnitude: deltas[bad],
		}
	}
	diag := checksum.Diagnose(deltas[:], e.n, absSums[:], e.tol)
	if diag.Kind != checksum.SingleError {
		return forwardFailed, diag
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
		if !e.tol.ConsistentAbs(gSum-gS, e.n, gAbs) {
			if diag.Pos >= e.lo && diag.Pos < e.hi {
				v.Data[diag.Pos-e.lo] = orig
			}
			e.c.Barrier() // revert visible before anyone reads v
			return forwardRejected, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
		}
	}
	v.LocalChecksums(e.weights, e.lo)
	e.res.Corrections++
	return forwardCorrected, diag
}
