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

// forwardOutcome classifies one attempt to repair an outer-level vector in
// place after a failed verification.
type forwardOutcome int

const (
	// forwardClean: every relation held on re-measurement — the triggering
	// probe fired on threshold-level noise; the checksums were re-anchored.
	forwardClean forwardOutcome = iota
	// forwardReanchored: exactly one relation was broken, which no data
	// error can produce — the corrupted site was the carried checksum
	// state; it was re-derived from the (trustworthy) data.
	forwardReanchored
	// forwardCorrected: the §5.2 single-error test passed, the located
	// element was corrected in place, and the post-repair confirmation
	// verified all three relations.
	forwardCorrected
	// forwardRejected: a correction was applied but the confirmation
	// failed — a fake-correction candidate, undone; rollback required.
	forwardRejected
	// forwardFailed: localization failed (multiple errors); rollback
	// required (the caller may still reconstruct the vector from clean
	// state where an identity such as r = b − A·x is available).
	forwardFailed
)

// DriftFactor widens the verification threshold for the amplified-drift
// screen of forwardDiagnose: an unlocalizable inconsistency whose every δ is
// within DriftFactor·θ of the checksum scale (or DriftFactor·η of the
// carried round-off bound) is attributed to floating point, not to a data
// error, and the vector is re-anchored instead of rolled back. The value
// keeps three orders of magnitude of clearance on both sides: genuine drift
// observed in fault transients sits within ~10·θ, while the smallest data
// error worth correcting (≳ the convergence tolerance) lands ≳ 1e3 above
// the widened limit.
const DriftFactor = 1e3

// withinDrift reports whether every checksum inconsistency of v is within
// the widened drift window.
func (e *engine) withinDrift(v *tracked, deltas, absSums [3]float64) bool {
	th := e.tol.Theta
	if th <= 0 {
		th = checksum.DefaultTheta
	}
	wide := checksum.Tol{Theta: DriftFactor * th}
	for k := range e.weights {
		if wide.InconsistentBound(deltas[k], e.n, absSums[k], DriftFactor*v.eta[k]) {
			return false
		}
	}
	return true
}

// forwardDiagnose re-measures all three checksum relations of v and
// attempts an in-place repair. It requires the engine to carry the Triple
// weight set (Options.ForwardRecovery arranges that); with any other weight
// set it degrades to forwardFailed and the caller rolls back.
//
// The classification is by the number of broken relations. A data error e
// at position j breaks all three relations by e·c_k(j), and no weight
// vanishes anywhere (the weights are 1, j and 1/j) — so exactly one broken
// relation implicates the carried checksum slot itself and the data is
// re-anchored over, while two or more route through checksum.Diagnose: the
// δ2·δ3 = δ1² single-error test, round-to-nearest localization with the
// IntegralityTol guard, and the harmonic cross-check. A surviving
// perturbation in the single-broken-relation case is bounded by the two
// relations that did hold, i.e. it is below the detection threshold — the
// same class of residual error the scheme accepts everywhere else.
//
// An applied correction is confirmed before it is trusted: all three
// relations must hold on the corrected data, otherwise the correction is
// undone (the fake-correction hazard of §5.2) and the caller rolls back.
func (e *engine) forwardDiagnose(v *tracked) (forwardOutcome, checksum.TripleDiagnosis) {
	if len(e.weights) != len(checksum.Triple) {
		return forwardFailed, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	var sums, absSums, deltas [3]float64
	inconsistent, bad := 0, 0
	for k := range e.weights {
		sum, abs := e.sums(v, k)
		e.stats.Verifications++
		sums[k], absSums[k] = sum, abs
		deltas[k] = sum - v.s[k]
		if e.tol.InconsistentBound(deltas[k], e.n, abs, v.eta[k]) {
			inconsistent++
			bad = k
		}
	}
	switch inconsistent {
	case 0:
		for k := range e.weights {
			checksum.Anchor(v.s, v.eta, k, sums[k], absSums[k], e.n)
		}
		return forwardClean, checksum.TripleDiagnosis{Kind: checksum.NoError}
	case 1:
		e.recompute(v)
		return forwardReanchored, checksum.TripleDiagnosis{
			Kind: checksum.SingleError, Pos: -1, Magnitude: deltas[bad],
		}
	}
	// Amplified-drift screen: a fault-polluted recurrence scalar multiplies
	// the usual O(n·ε) update noise, which can push every relation just past
	// the carried η bound at once with no data error present. Localizing
	// such noise would manufacture a fake single-error position (the ratio
	// δ2/δ1 of round-off is arbitrary), so when every δ still sits within
	// DriftFactor of the verification threshold the data is accepted and
	// the checksums re-anchored. A real strike clears the screen by orders
	// of magnitude: even a unit-magnitude data error leaves a relative
	// inconsistency around 1/n, far above DriftFactor·θ.
	if e.withinDrift(v, deltas, absSums) {
		e.recompute(v)
		return forwardReanchored, checksum.TripleDiagnosis{
			Kind: checksum.SingleError, Pos: -1, Magnitude: deltas[bad],
		}
	}
	diag := checksum.Diagnose(deltas[:], e.n, absSums[:], e.tol)
	if diag.Kind != checksum.SingleError {
		return forwardFailed, diag
	}
	// The revert restores the saved original value rather than re-adding the
	// magnitude: subtract-then-add is not a bit-exact round-trip when the
	// correction dwarfs the element, and a rejected repair must leave the
	// vector exactly as the rollback path expects to find it.
	orig := v.data[diag.Pos]
	checksum.CorrectSingle(v.data, diag)
	var csums, cabs [3]float64
	for k := range e.weights {
		sum, abs := e.sums(v, k)
		e.stats.Verifications++
		csums[k], cabs[k] = sum, abs
		if !e.tol.ConsistentBound(sum-v.s[k], e.n, abs, v.eta[k]) {
			v.data[diag.Pos] = orig
			return forwardRejected, checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
		}
	}
	for k := range e.weights {
		checksum.Anchor(v.s, v.eta, k, csums[k], cabs[k], e.n)
	}
	e.stats.Corrections++
	return forwardCorrected, diag
}
