package core

import (
	"newsum/internal/checksum"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// BasicJacobi solves A·x = b with the stationary Jacobi iteration under
// basic online ABFT protection. Jacobi and Chebyshev are the paper's
// examples (Fig. 1) of iterative methods with no orthogonality structure:
// the orthogonality baseline cannot protect them at all, while the new-sum
// scheme instruments them with the same four vector-generating operations.
//
// Per iteration: w := A·x (MVM), r := b − w (VLO), u := D⁻¹r (PCO),
// x := x + u (VLO). Since r, w and u are recomputed from x every iteration,
// verifying checksum(x) alone covers every vector, and the checkpoint set
// is just {x}.
func BasicJacobi(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	var res Result
	if err := validateSystem(a, b); err != nil { // before the diagonal is read
		return res, err
	}
	diagM, err := precond.Jacobi(a)
	if err != nil {
		return res, err
	}
	st, err := begin(a, diagM, b, checksum.Single, &opts, &res.Stats)
	if err != nil {
		return res, err
	}
	e, x, bT, normB, tolRes, maxIter := st.e, st.x, st.b, st.normB, st.tol, st.maxIter
	w := e.newTracked("w")
	r := e.newTracked("r")
	u := e.newTracked("u")

	store := opts.newStore()
	d, cd := opts.DetectInterval, opts.CheckpointInterval
	res.X = x.data
	var relres float64
	// restoreX rolls x (data + checksums) back to the latest snapshot; a
	// lossy restore re-anchors the checksums from the quantized data so the
	// next verification doesn't flag the rounding as a fault.
	restoreX := func(iter int) (int, error) {
		snapIter, rerr := store.Restore(
			map[string][]float64{"x": x.data}, nil,
			map[string][]float64{"x": x.s, "x.eta": x.eta})
		if rerr != nil {
			return 0, rerr
		}
		if store.Lossy() {
			e.recompute(x)
			res.Stats.LossyRestores++
		}
		res.Stats.WastedIterations += iter - snapIter
		return snapIter, nil
	}

	i := 0
	for i < maxIter {
		if err := opts.ctxErr("Jacobi"); err != nil {
			res.Residual = relres
			res.Stats.InjectedErrors = e.injectedCount()
			return res, err
		}
		if i > 0 && i%d == 0 {
			if !e.verify(x) {
				res.Stats.Rollbacks++
				if res.Stats.Rollbacks > opts.MaxRollbacks {
					res.Residual = relres
					res.Stats.InjectedErrors = e.injectedCount()
					return res, rollbackStormErr("Jacobi", Basic)
				}
				snapIter, rerr := restoreX(i)
				if rerr != nil {
					return res, rerr
				}
				i = snapIter
				continue
			}
		}
		if i%cd == 0 {
			store.Save(i, map[string][]float64{"x": x.data}, nil,
				map[string][]float64{"x": x.s, "x.eta": x.eta})
			res.Stats.Checkpoints++
			res.Stats.CheckpointBytes = store.BytesCopied
			res.Stats.CheckpointStoredBytes = store.BytesStored
		}

		e.mvm(i, w, x)                  // w = A·x
		e.axpbyInto(i, r, 1, bT, -1, w) // r = b − w
		relres = vec.Norm2(r.data) / normB
		if opts.RecordResiduals {
			res.History = append(res.History, relres)
		}
		if relres <= tolRes {
			if e.verify(x) {
				res.Converged = true
				break
			}
			res.Stats.Rollbacks++
			if res.Stats.Rollbacks > opts.MaxRollbacks {
				res.Residual = relres
				res.Stats.InjectedErrors = e.injectedCount()
				return res, rollbackStormErr("Jacobi", Basic)
			}
			snapIter, rerr := restoreX(i)
			if rerr != nil {
				return res, rerr
			}
			i = snapIter
			continue
		}
		if err := e.pco(i, u, r); err != nil {
			return res, err
		}
		e.axpy(i, x, 1, u) // x = x + u
		i++
		res.Iterations = i
	}

	res.Residual = relres
	res.Stats.InjectedErrors = e.injectedCount()
	if !res.Converged {
		return notConverged("ABFT Jacobi", res, relres)
	}
	return res, nil
}

// BasicChebyshev solves the SPD system A·x = b with the preconditioned
// Chebyshev semi-iteration under basic online ABFT protection, given
// spectral bounds [lmin, lmax] of M⁻¹A. Chebyshev has no inner products,
// so there is nothing for residual/orthogonality-based detection to hook
// into — but its MVM, PCO and VLOs carry checksums exactly like PCG's.
// Checkpoint set: {x, p, r} plus the recurrence scalar alpha.
func BasicChebyshev(a *sparse.CSR, m precond.Preconditioner, b []float64, lmin, lmax float64, opts Options) (Result, error) {
	var res Result
	if lmin <= 0 || lmax <= lmin {
		return res, breakdownErr("Chebyshev", Basic, 0, "need 0 < lmin < lmax")
	}
	st, err := begin(a, m, b, checksum.Single, &opts, &res.Stats)
	if err != nil {
		return res, err
	}
	e, x, bT, normB, tolRes, maxIter := st.e, st.x, st.b, st.normB, st.tol, st.maxIter
	r := e.newTracked("r")
	z := e.newTracked("z")
	p := e.newTracked("p")
	q := e.newTracked("q")
	e.residual(r, bT, x)

	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2
	var alpha, beta float64

	store := opts.newStore()
	d, cd := opts.DetectInterval, opts.CheckpointInterval
	res.X = x.data
	relres := vec.Norm2(r.data) / normB
	if relres <= tolRes {
		res.Converged = true
		res.Residual = relres
		return res, nil
	}

	rollback := func(iter int) (int, bool) {
		res.Stats.Rollbacks++
		if res.Stats.Rollbacks > opts.MaxRollbacks {
			return iter, false
		}
		scal := map[string]float64{}
		snapIter, err := store.Restore(
			map[string][]float64{"x": x.data, "p": p.data},
			scal,
			map[string][]float64{"x": x.s, "p": p.s, "x.eta": x.eta, "p.eta": p.eta})
		if err != nil {
			return iter, false
		}
		alpha = scal["alpha"]
		if store.Lossy() {
			// Quantized restore: re-anchor the restored vectors' checksums
			// from the perturbed data before anything verifies them.
			e.recompute(x)
			e.recompute(p)
			res.Stats.LossyRestores++
		}
		e.residual(r, bT, x)
		res.Stats.RecoveryMVMs++
		res.Stats.WastedIterations += iter - snapIter
		return snapIter, true
	}

	i := 0
	for i < maxIter {
		if err := opts.ctxErr("Chebyshev"); err != nil {
			res.Residual = relres
			res.Stats.InjectedErrors = e.injectedCount()
			return res, err
		}
		if i > 0 && i%d == 0 {
			if !e.verify(x) || !e.verify(r) {
				var ok bool
				if i, ok = rollback(i); !ok {
					res.Residual = relres
					res.Stats.InjectedErrors = e.injectedCount()
					return res, rollbackStormErr("Chebyshev", Basic)
				}
				continue
			}
		}
		if i%cd == 0 {
			if i > 0 && !e.verify(p) {
				var ok bool
				if i, ok = rollback(i); !ok {
					res.Residual = relres
					res.Stats.InjectedErrors = e.injectedCount()
					return res, rollbackStormErr("Chebyshev", Basic)
				}
				continue
			}
			store.Save(i,
				map[string][]float64{"x": x.data, "p": p.data},
				map[string]float64{"alpha": alpha},
				map[string][]float64{"x": x.s, "p": p.s, "x.eta": x.eta, "p.eta": p.eta})
			res.Stats.Checkpoints++
			res.Stats.CheckpointBytes = store.BytesCopied
			res.Stats.CheckpointStoredBytes = store.BytesStored
		}

		if err := e.pco(i, z, r); err != nil {
			return res, err
		}
		if i == 0 {
			copyTracked(p, z)
			alpha = 1 / theta
		} else {
			beta = (delta * alpha / 2) * (delta * alpha / 2)
			alpha = 1 / (theta - beta/alpha)
			e.xpby(i, p, z, beta, p)
		}
		e.axpy(i, x, alpha, p)
		e.mvm(i, q, p)
		e.axpy(i, r, -alpha, q)
		i++
		res.Iterations = i

		relres = vec.Norm2(r.data) / normB
		if opts.RecordResiduals {
			res.History = append(res.History, relres)
		}
		if relres <= tolRes {
			if e.verify(x) && e.verify(r) {
				res.Converged = true
				break
			}
			var ok bool
			if i, ok = rollback(i); !ok {
				res.Residual = relres
				res.Stats.InjectedErrors = e.injectedCount()
				return res, rollbackStormErr("Chebyshev", Basic)
			}
			continue
		}
	}

	res.Residual = relres
	res.Stats.InjectedErrors = e.injectedCount()
	if !res.Converged {
		return notConverged("ABFT Chebyshev", res, relres)
	}
	return res, nil
}
