package par

import (
	"fmt"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// ABFTBiCGStab runs the online ABFT preconditioned BiCGSTAB distributed
// over nranks goroutine ranks, mirroring core's serial abftBiCGSTAB on the
// rankEngine. BiCGStab exercises the engine harder than PCG: two protected
// MVMs and two PCOs per iteration, an extra fixed shadow residual that is
// never checksummed (it is read-only after setup), and an early exit on the
// intermediate residual s. The checkpoint set is the minimal {x, p} plus
// the recurrence scalars; r and v are recomputed on rollback.
func ABFTBiCGStab(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	if err := validateProblem(a, b, nranks); err != nil {
		return Result{}, err
	}
	opts.normalize(a.Rows)
	part := NnzPartition(a, nranks)
	return runTeam(nranks, opts.Topology, func(c *Comm) (Result, error) {
		return rankBiCGStab(c, a, b, part, opts)
	})
}

func rankBiCGStab(c *Comm, a *sparse.CSR, b []float64, part Partition, opts Options) (res Result, err error) {
	e, err := newRankEngine(c, a, b, part, &opts, &res, true)
	if err != nil {
		return res, err
	}
	defer e.finish()

	x := e.newVec()
	r := e.newVec()
	p := e.newVec()
	v := e.newVec()
	s := e.newVec()
	t := e.newVec()
	phat := e.newVec()
	shat := e.newVec()

	// r = b − A·x0 (x0 = 0, so r = b) with exact local checksums.
	copyDist(r, e.bL)
	rhat := vec.Clone(r.Data) // local block of the shadow residual, fixed for the whole solve

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

	rhoPrev, alpha, omega := 1.0, 1.0, 1.0

	d, cd := opts.DetectInterval, opts.CheckpointInterval
	save := func(iter int) {
		e.save(iter,
			map[string]*DistVector{"x": x, "p": p},
			map[string]float64{"rhoPrev": rhoPrev, "alpha": alpha, "omega": omega})
	}
	// rollback restores {x, p} and the scalars, then reconstructs
	// r = b − A·x and v = A·M⁻¹p with fresh checksums.
	rollback := func(iter int) (int, bool) {
		scal := map[string]float64{}
		snapIter, ok := e.restore(map[string]*DistVector{"x": x, "p": p}, scal)
		if !ok {
			return iter, false
		}
		rhoPrev, alpha, omega = scal["rhoPrev"], scal["alpha"], scal["omega"]
		e.residualFresh(r, x)
		if e.store.Lossy() {
			// The restored direction and scalars belong to the exact
			// snapshot state; against the reconstructed residual the stale ρ
			// makes the first β = (ρ/ρ')·(α/ω) blow up and permanently
			// poison p. A lossy restore is therefore a BiCGStab restart:
			// α := 0 forces β = 0 at the next iteration, collapsing the
			// direction update to p := r, so the stale {p, v, ρ', ω} never
			// enter the recurrence.
			copyDist(p, r)
			rhoPrev, alpha, omega = 1, 0, 1
		}
		if snapIter > 0 {
			// v = A·M⁻¹·p, needed by the search-direction update.
			if err := e.pco(phat, p); err != nil {
				return iter, false
			}
			e.mvmFresh(v, phat)
		}
		return snapIter, true
	}
	storm := func() (Result, error) {
		res.Residual = relres
		return res, fmt.Errorf("par: ABFT BiCGStab: %w", ErrRollbackStorm)
	}

	i := 0
	for i < opts.MaxIter {
		e.beginIter(i)
		if e.canceled() {
			res.Residual = relres
			return res, e.cancelErr("ABFT BiCGStab")
		}
		if i > 0 && i%d == 0 {
			// v is verified alongside x and r: a huge corruption in v can be
			// scaled below the detection threshold on its way into s (α =
			// ρ/r̂ᵀv divides it away), so the MVM output itself must be
			// checked while the raw inconsistency is still visible.
			if !e.verify(x) || !e.verify(r) || !e.verify(v) {
				e.detect(i, "outer-level: checksum mismatch in {x, r, v}")
				var ok bool
				if i, ok = rollback(i); !ok {
					return storm()
				}
				continue
			}
		}
		if i%cd == 0 {
			// Guard the snapshot: p must verify clean before it becomes
			// the rollback target.
			if i > 0 && !e.verify(p) {
				e.detect(i, "pre-checkpoint: checksum(p) mismatch")
				var ok bool
				if i, ok = rollback(i); !ok {
					return storm()
				}
				continue
			}
			save(i)
		}

		rho := e.dotRaw(rhat, r)
		if breakdownSuspect(rho) {
			e.detect(i, "breakdown suspect: ρ = %v", rho)
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: BiCGStab breakdown at iteration %d: ρ = %v", i, rho)
			}
			continue
		}
		if i == 0 {
			copyDist(p, r)
		} else {
			beta := (rho / rhoPrev) * (alpha / omega)
			// p = r + beta*(p − omega*v)
			e.axpy(p, -omega, v)
			e.xpby(p, r, beta, p)
		}
		if err := e.pco(phat, p); err != nil {
			return res, err
		}
		e.mvm(v, phat)
		if opts.TwoLevel && !e.innerCheck(v, phat) {
			var ok bool
			if i, ok = rollback(i); !ok {
				return storm()
			}
			continue
		}
		rhatV := e.dotRaw(rhat, v)
		if breakdownSuspect(rhatV) {
			e.detect(i, "breakdown suspect: r̂ᵀv = %v", rhatV)
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: BiCGStab breakdown at iteration %d: r̂ᵀv = %v", i, rhatV)
			}
			continue
		}
		alpha = rho / rhatV
		e.axpbyInto(s, 1, r, -alpha, v)

		if rel := e.norm2(s) / normB; rel <= opts.Tol {
			e.axpy(x, alpha, phat)
			i++
			res.Iterations = i
			relres = rel
			if e.verify(x) && e.verify(s) {
				res.Converged = true
				break
			}
			e.detect(i, "converged intermediate residual failed verification")
			var ok bool
			if i, ok = rollback(i); !ok {
				return storm()
			}
			continue
		}

		if err := e.pco(shat, s); err != nil {
			return res, err
		}
		e.mvm(t, shat)
		if opts.TwoLevel && !e.innerCheck(t, shat) {
			var ok bool
			if i, ok = rollback(i); !ok {
				return storm()
			}
			continue
		}
		tt := e.dot(t, t)
		if breakdownSuspect(tt) || tt < 0 {
			e.detect(i, "breakdown suspect: tᵀt = %v", tt)
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: BiCGStab breakdown at iteration %d: tᵀt = %v", i, tt)
			}
			continue
		}
		omega = e.dot(t, s) / tt
		if breakdownSuspect(omega) {
			e.detect(i, "breakdown suspect: ω = %v", omega)
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				return res, fmt.Errorf("par: BiCGStab breakdown at iteration %d: ω = %v", i, omega)
			}
			continue
		}
		e.axpy(x, alpha, phat)
		e.axpy(x, omega, shat)
		e.axpbyInto(r, 1, s, -omega, t)
		rhoPrev = rho
		i++
		res.Iterations = i

		relres = e.norm2(r) / normB
		if relres <= opts.Tol {
			if e.verify(x) && e.verify(r) {
				res.Converged = true
				break
			}
			e.detect(i, "converged residual failed verification")
			var ok bool
			if i, ok = rollback(i); !ok {
				return storm()
			}
			continue
		}
	}

	res.Residual = relres
	res.X = e.gatherX(x)
	if !res.Converged {
		return res, fmt.Errorf("par: ABFT BiCGStab did not converge in %d iterations (relres %.3e)", res.Iterations, relres)
	}
	return res, nil
}
