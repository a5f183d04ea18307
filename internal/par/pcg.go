package par

import (
	"fmt"

	"newsum/internal/core"
	"newsum/internal/sparse"
)

// ABFTPCG runs the basic online ABFT PCG distributed over nranks goroutine
// ranks with a block-Jacobi ILU(0) preconditioner whose blocks coincide
// with the rank partition (the PETSc configuration of §6.3). All checksum
// state and checkpoints are rank-local; verification needs only scalar
// all-reductions, reproducing the paper's locality argument.
func ABFTPCG(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	if err := validateProblem(a, b, nranks); err != nil {
		return Result{}, err
	}
	opts.normalize(a.Rows)
	part := NnzPartition(a, nranks)
	return runTeam(nranks, opts.Topology, func(c *Comm) (Result, error) {
		return rankPCG(c, a, b, part, opts)
	})
}

// rankPCG is the per-rank PCG body, written against the rankEngine the same
// way core's serial solvers are written against *engine.
func rankPCG(c *Comm, a *sparse.CSR, b []float64, part Partition, opts Options) (res Result, err error) {
	e, err := newRankEngine(c, a, b, part, &opts, &res, true)
	if err != nil {
		return res, err
	}
	defer e.finish()

	x := e.newVec()
	r := e.newVec()
	z := e.newVec()
	p := e.newVec()
	q := e.newVec()

	// r = b − A·x0 (x0 = 0, so r = b) with exact local checksums.
	copyDist(r, e.bL)

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

	if err := e.pco(z, r); err != nil {
		return res, err
	}
	copyDist(p, z)
	rho := e.dot(r, z)

	d, cd := opts.DetectInterval, opts.CheckpointInterval
	save := func(iter int) {
		e.save(iter, map[string]*DistVector{"p": p, "x": x}, map[string]float64{"rho": rho})
	}
	rollback := func(iter int) (int, bool) {
		scal := map[string]float64{}
		snapIter, ok := e.restore(map[string]*DistVector{"p": p, "x": x}, scal)
		if !ok {
			return iter, false
		}
		rho = scal["rho"]
		e.residualFresh(r, x)
		if e.store.Lossy() {
			// The restored direction and ρ belong to the exact snapshot
			// state; against the reconstructed residual — dominated by the
			// quantization noise A·δx — the stale ρ makes the first
			// β = ρ'/ρ blow up and permanently poison p. A lossy restore is
			// therefore a CG restart: z = M⁻¹r, p := z, ρ = rᵀz (replicated,
			// so every rank restarts identically).
			if err := e.pco(z, r); err != nil {
				return iter, false
			}
			copyDist(p, z)
			rho = e.dot(r, z)
		}
		return snapIter, true
	}

	// forwardRepair is the forward-recovery tier (see core's abftPCG for the
	// full rationale): attempt a replicated in-place repair of every vector
	// that failed verification, avoiding the coordinated rollback. Every
	// verdict inside derives from all-reduced values, so the return — and
	// therefore the control flow — is identical on every rank. restart
	// forces the search-direction re-projection even without a data repair
	// (the convergence exit skips the recurrence tail).
	forwardRepair := func(iter int, xOK, rOK, restart bool) bool {
		if !opts.ForwardRecovery || res.ForwardRepairs >= opts.MaxRollbacks {
			return false
		}
		repaired := 0
		dataRepair := restart
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
			// aliased multi-error pattern below the confirmation threshold
			// (suppressed by ~1/j³ at large indices), and accepting it
			// re-anchors checksum-endorsed corruption into the recurrence's
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
			dataRepair = true
			e.trace(iter, core.EvForwardRepair, "reconstructed r = b − A·x")
		}
		if repaired == 0 && !restart {
			return false
		}
		if dataRepair {
			// z and p were computed from the pre-repair r at the previous
			// tail, so a data repair of r restarts the recurrence from the
			// repaired residual (z = M⁻¹r, p := z, ρ = rᵀz).
			if err := e.pco(z, r); err != nil {
				return false
			}
			copyDist(p, z)
			rho = e.dot(r, z)
			e.trace(iter, core.EvForwardRepair, "re-projected search direction (CG restart)")
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
			return res, e.cancelErr("ABFT PCG")
		}
		if i > 0 && i%d == 0 {
			xOK := e.verify(x)
			rOK := true
			if xOK || opts.ForwardRecovery {
				// Forward recovery needs both verdicts; the rollback-only
				// path keeps the short-circuit so its stats are unchanged.
				rOK = e.verify(r)
			}
			if !xOK || !rOK {
				e.detect(i, "outer-level: checksum(x)/checksum(r) mismatch")
				if !forwardRepair(i, xOK, rOK, false) {
					var ok bool
					if i, ok = rollback(i); !ok {
						res.Residual = relres
						return res, fmt.Errorf("par: ABFT PCG: %w", ErrRollbackStorm)
					}
					continue
				}
			}
		}
		if i%cd == 0 {
			save(i)
		}

		e.mvm(q, p)
		if opts.TwoLevel && !e.innerCheck(q, p) {
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: ABFT PCG: %w", ErrRollbackStorm)
			}
			continue
		}
		pq := e.dot(p, q)
		if breakdownSuspect(pq) {
			e.detect(i, "breakdown suspect: pᵀAp = %v", pq)
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: PCG breakdown at iteration %d: pᵀAp = %v", i, pq)
			}
			continue
		}
		alpha := rho / pq
		e.axpy(x, alpha, p)
		e.axpy(r, -alpha, q)
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
			// repair here always re-projects (restart = true).
			if forwardRepair(i, xOK, rOK, true) {
				relres = e.norm2(r) / normB
				if relres <= opts.Tol && e.verify(x) && e.verify(r) {
					res.Converged = true
					break
				}
				continue
			}
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: ABFT PCG: %w", ErrRollbackStorm)
			}
			continue
		}
		if err := e.pco(z, r); err != nil {
			return res, err
		}
		rhoNew := e.dot(r, z)
		beta := rhoNew / rho
		e.xpby(p, z, beta, p)
		rho = rhoNew
	}

	res.Residual = relres
	res.X = e.gatherX(x)
	if !res.Converged {
		return res, fmt.Errorf("par: ABFT PCG did not converge in %d iterations (relres %.3e)", res.Iterations, relres)
	}
	return res, nil
}
