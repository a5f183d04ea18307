package par

import (
	"fmt"

	"newsum/internal/core"
	"newsum/internal/sparse"
)

// ABFTCR runs the online ABFT conjugate residual method distributed over
// nranks goroutine ranks — the third §1-listed Krylov solver on the shared
// rankEngine, unpreconditioned like its serial core counterpart. The CR
// recurrence keeps x, r, p and the products Ar, Ap; errors anywhere
// propagate into x and r, so the outer level verifies those two, and the
// checkpoint set is {x, p} with the scalar rᵀAr — r is recomputed as
// b − A·x and the products as A·r, A·p (three recovery MVMs).
func ABFTCR(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	if err := validateProblem(a, b, nranks); err != nil {
		return Result{}, err
	}
	opts.normalize(a.Rows)
	part := NnzPartition(a, nranks)
	return runTeam(nranks, opts.Topology, func(c *Comm) (Result, error) {
		return rankCR(c, a, b, part, opts)
	})
}

func rankCR(c *Comm, a *sparse.CSR, b []float64, part Partition, opts Options) (res Result, err error) {
	e, err := newRankEngine(c, a, b, part, &opts, &res, false)
	if err != nil {
		return res, err
	}
	defer e.finish()

	x := e.newVec()
	r := e.newVec()
	p := e.newVec()
	ar := e.newVec()
	ap := e.newVec()

	// r = b − A·x0 (x0 = 0, so r = b); Ar, Ap seeded with fresh checksums.
	copyDist(r, e.bL)
	copyDist(p, r)
	e.mvmFresh(ar, r)
	copyDist(ap, ar)

	normB := e.norm2(e.bL)
	if normB <= 0 {
		normB = 1
	}
	relres := e.norm2(r) / normB
	if relres <= opts.Tol {
		res.Converged = true
		res.Residual = relres
		res.X = e.gatherX(x)
		return res, nil
	}
	rAr := e.dot(r, ar)

	d, cd := opts.DetectInterval, opts.CheckpointInterval
	save := func(iter int) {
		e.save(iter,
			map[string]*DistVector{"x": x, "p": p},
			map[string]float64{"rAr": rAr})
	}
	rollback := func(iter int) (int, bool) {
		scal := map[string]float64{}
		snapIter, ok := e.restore(map[string]*DistVector{"x": x, "p": p}, scal)
		if !ok {
			return iter, false
		}
		rAr = scal["rAr"]
		e.residualFresh(r, x)
		e.mvmFresh(ar, r)
		if e.store.Lossy() {
			// The restored direction and rᵀAr belong to the exact snapshot
			// state; against the reconstructed residual the stale scalar
			// makes the first β blow up and permanently poison p. A lossy
			// restore is therefore a CR restart: p := r, Ap := Ar, rᵀAr
			// fresh — the same re-projection the forward tier performs.
			copyDist(p, r)
			copyDist(ap, ar)
			rAr = e.dot(r, ar)
		} else {
			e.mvmFresh(ap, p)
		}
		return snapIter, true
	}
	storm := func() (Result, error) {
		res.Residual = relres
		return res, fmt.Errorf("par: ABFT CR: %w", ErrRollbackStorm)
	}

	// forwardRepair is the forward-recovery tier for distributed CR (see
	// core's BasicCR for the rationale). A data repair of r invalidates the
	// whole product family (Ar was computed from the pre-repair r, p and Ap
	// carry its propagation), so it triggers a CR restart: Ar = A·r, p := r,
	// Ap := Ar, rᵀAr fresh. Every verdict derives from all-reduced values,
	// so the control flow is identical on every rank.
	forwardRepair := func(iter int, xOK, rOK, arOK, apOK, pOK, restart bool) bool {
		if !opts.ForwardRecovery || res.ForwardRepairs >= opts.MaxRollbacks {
			return false
		}
		repaired := 0
		restartFamily := restart
		reconstructR := false
		if !xOK {
			out, diag := e.forwardDiagnose(x)
			switch out {
			case forwardRejected:
				res.RejectedCorrections++
				e.trace(iter, core.EvForwardRepair, "rejected fake correction on x; falling back")
				return false
			case forwardFailed:
				e.trace(iter, core.EvForwardRepair, "localization failed on x; falling back")
				return false
			case forwardCorrected:
				// An in-place correction moves the iterate, so the carried
				// residual no longer satisfies r = b − A·x even when r's own
				// verification passed; rebuild it below.
				reconstructR = true
				e.trace(iter, core.EvForwardRepair, "corrected x[%d] -= %.6g", diag.Pos, diag.Magnitude)
			case forwardReanchored:
				// Re-anchoring accepts x's data, including any sub-screen
				// perturbation the old checksums disagreed with, while the
				// recurrence residual tracks the old checksum state; rebuild
				// r = b − A·x below so the two cannot drift apart permanently.
				reconstructR = true
				e.trace(iter, core.EvForwardRepair, "re-anchored checksum(x)")
			}
			repaired++
		}
		if !rOK {
			// No in-place diagnosis is trusted on r — not even a confirmed
			// §5.2 correction: a collapsed recurrence scalar can shrink an
			// aliased multi-error pattern below the confirmation threshold,
			// and accepting it re-anchors corruption into the recurrence's
			// fixed-point anchor (see core's BasicPCG). r = b − A·x holds for
			// any step lengths taken, so a clean x rebuilds it exactly.
			reconstructR = true
			repaired++
		}
		if reconstructR {
			if !e.verify(x) {
				return false
			}
			e.residualFresh(r, x)
			restartFamily = true
			e.trace(iter, core.EvForwardRepair, "reconstructed r = b − A·x")
		}
		// The stored product family is never repaired element-wise: Ar and
		// Ap must equal A·r and A·p exactly or the r update breaks the
		// b − A·x invariant, and even a §5.2-confirmed correction can be a
		// fake accepted under a collapsed scalar (see core's BasicCR). Every
		// failed verification here routes to the family restart, which
		// rebuilds all three vectors from identity-exact state.
		if !arOK {
			restartFamily = true
			repaired++
		}
		if !apOK {
			restartFamily = true
			repaired++
		}
		if !pOK {
			restartFamily = true
			repaired++
		}
		if restartFamily {
			e.mvmFresh(ar, r)
			copyDist(p, r)
			copyDist(ap, ar)
			rAr = e.dot(r, ar)
			e.trace(iter, core.EvForwardRepair, "re-projected {p, Ar, Ap} (CR restart)")
		}
		if repaired == 0 {
			return false
		}
		res.ForwardRepairs += repaired
		res.RollbacksAvoided++
		if snapIter, ok := e.store.LatestIteration(); ok {
			res.IterationsSaved += iter - snapIter
		}
		return true
	}

	i := 0
	for i < opts.MaxIter {
		e.beginIter(i)
		if e.canceled() {
			res.Residual = relres
			return res, e.cancelErr("ABFT CR")
		}
		if i > 0 && i%d == 0 {
			// Unlike PCG/BiCGStab there is no preconditioner solve dividing
			// the carried checksum error back down by d, so the Ar/Ap
			// recurrences amplify round-off by ~(d·α + β) per iteration.
			// Verifying (and thereby re-anchoring) them at every detect
			// boundary breaks that growth and catches a fault while it still
			// lives in the product recurrences, before it reaches x or r.
			var xOK, rOK, arOK, apOK, allOK bool
			if opts.ForwardRecovery {
				// Forward recovery needs every verdict (each failed vector
				// is repaired individually); the rollback-only path keeps
				// the short-circuit so its stats are unchanged.
				xOK, rOK, arOK, apOK = e.verify(x), e.verify(r), e.verify(ar), e.verify(ap)
				allOK = xOK && rOK && arOK && apOK
			} else {
				allOK = e.verify(x) && e.verify(r) && e.verify(ar) && e.verify(ap)
			}
			if !allOK {
				e.detect(i, "outer-level: checksum mismatch in {x, r, Ar, Ap}")
				if !forwardRepair(i, xOK, rOK, arOK, apOK, true, false) {
					var ok bool
					if i, ok = rollback(i); !ok {
						return storm()
					}
					continue
				}
			}
		}
		if i%cd == 0 {
			// Guard the snapshot: p must verify clean before it becomes the
			// rollback target (Ar, Ap and the rAr scalar were just verified
			// above — cd is a multiple of d).
			if i > 0 && !e.verify(p) {
				e.detect(i, "pre-checkpoint: checksum(p) mismatch")
				if !forwardRepair(i, true, true, true, true, false, false) {
					var ok bool
					if i, ok = rollback(i); !ok {
						return storm()
					}
					continue
				}
			}
			save(i)
		}

		apap := e.dot(ap, ap)
		if breakdownSuspect(apap) || breakdownSuspect(rAr) {
			e.detect(i, "breakdown suspect: ApᵀAp = %v, rᵀAr = %v", apap, rAr)
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: CR breakdown at iteration %d: ApᵀAp = %v, rᵀAr = %v", i, apap, rAr)
			}
			continue
		}
		alpha := rAr / apap
		e.axpy(x, alpha, p)
		e.axpy(r, -alpha, ap)
		i++
		res.Iterations = i

		relres = e.norm2(r) / normB
		if relres <= opts.Tol {
			xOK := e.verify(x)
			rOK := true
			if xOK || opts.ForwardRecovery {
				rOK = e.verify(r)
			}
			if xOK && rOK {
				res.Converged = true
				break
			}
			e.detect(i, "converged residual failed verification")
			// The convergence exit skips the recurrence tail, so a forward
			// repair here always rebuilds the product family (restart).
			if forwardRepair(i, xOK, rOK, true, true, true, true) {
				relres = e.norm2(r) / normB
				if relres <= opts.Tol && e.verify(x) && e.verify(r) {
					res.Converged = true
					break
				}
				continue
			}
			var ok bool
			if i, ok = rollback(i); !ok {
				return storm()
			}
			continue
		}

		// The iteration's protected MVM carries the fault coordinate of the
		// loop index it tops off (curIter is still i−1 here, matching the
		// serial solver's bookkeeping).
		e.mvm(ar, r)
		if opts.TwoLevel && !e.innerCheck(ar, r) {
			var ok bool
			if i, ok = rollback(i); !ok {
				return storm()
			}
			continue
		}
		rArNew := e.dot(r, ar)
		beta := rArNew / rAr
		e.xpby(p, r, beta, p)
		e.xpby(ap, ar, beta, ap)
		rAr = rArNew
	}

	res.Residual = relres
	res.X = e.gatherX(x)
	if !res.Converged {
		return res, fmt.Errorf("par: ABFT CR did not converge in %d iterations (relres %.3e)", res.Iterations, relres)
	}
	return res, nil
}
