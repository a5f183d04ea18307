package core

import "newsum/internal/checksum"

// This file is the forward-recovery tier (ROADMAP item 5, after
// Fasi–Langou–Robert–Uçar, "A Backward/Forward Recovery Approach for the
// Preconditioned Conjugate Gradient Method", arXiv:1511.04478): when an
// outer-level verification fires under Options.ForwardRecovery, the solver
// re-measures all three §5.2 checksum relations of the suspect vector and
// repairs it in place when the triple-checksum analysis localizes the
// corruption, avoiding the checkpoint rollback and its wasted iterations.
// Rollback remains the fallback for everything localization cannot prove.

// forwardDiagnose re-measures all three checksum relations of v, triages
// them (checksum.Triage) and repairs v in place: it re-anchors the
// checksums on Clean, re-derives them from the data on Reanchored, and on
// Corrected corrects the located element. It requires the engine to carry
// the Triple weight set (Options.ForwardRecovery arranges that); with any
// other weight set it degrades to Failed and the caller rolls back.
//
// An applied correction is confirmed before it is trusted: all three
// relations must hold on the corrected data, otherwise the correction is
// undone (the fake-correction hazard of §5.2), the outcome is Rejected and
// the caller rolls back.
func (e *engine) forwardDiagnose(v *tracked) (checksum.Outcome, checksum.TripleDiagnosis) {
	if len(e.weights) != len(checksum.Triple) {
		return checksum.Failed, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	var sums, absSums, deltas, etas [3]float64
	for k := range e.weights {
		sums[k], absSums[k] = e.sums(v, k)
		e.stats.Verifications++
		deltas[k], etas[k] = sums[k]-v.s[k], v.eta[k]
	}
	out, diag := checksum.Triage(deltas, absSums, etas, e.n, e.tol)
	switch out {
	case checksum.Clean:
		for k := range e.weights {
			checksum.Anchor(v.s, v.eta, k, sums[k], absSums[k], e.n)
		}
		return out, diag
	case checksum.Reanchored:
		e.recompute(v)
		return out, diag
	case checksum.Failed:
		return out, diag
	}
	// The revert restores the saved original value rather than re-adding the
	// magnitude: subtract-then-add is not a bit-exact round-trip when the
	// correction dwarfs the element, and a rejected repair must leave the
	// vector exactly as the rollback path expects to find it.
	orig := v.data[diag.Pos]
	checksum.CorrectSingle(v.data, diag)
	for k := range e.weights {
		sums[k], absSums[k] = e.sums(v, k)
		e.stats.Verifications++
		if !e.tol.ConsistentBound(sums[k]-v.s[k], e.n, absSums[k], v.eta[k]) {
			v.data[diag.Pos] = orig
			return checksum.Rejected, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
		}
	}
	for k := range e.weights {
		checksum.Anchor(v.s, v.eta, k, sums[k], absSums[k], e.n)
	}
	e.stats.Corrections++
	return out, diag
}
