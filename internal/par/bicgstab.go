package par

import (
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// ABFTBiCGStab runs the online ABFT preconditioned BiCGSTAB distributed
// over nranks goroutine ranks, mirroring core's serial abftBiCGSTAB under
// the rank driver. BiCGStab exercises the engine harder than PCG: two
// protected MVMs and two PCOs per iteration, an extra fixed shadow residual
// that is never checksummed (it is read-only after setup), and an early exit
// on the intermediate residual s. The checkpoint set is the minimal {x, p}
// plus the recurrence scalars; r and v are recomputed on rollback.
func ABFTBiCGStab(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	return solve(a, b, nranks, opts, true, newBiCGStab)
}

// bicgstab is the preconditioned BiCGSTAB recurrence. It has no forward
// tier: a detection always rolls back.
type bicgstab struct {
	krylov
	v, s, t, phat, shat   *DistVector
	rhat                  []float64 // local block of the shadow residual, fixed for the whole solve
	rhoPrev, alpha, omega float64
}

func newBiCGStab(k *rankRun) recurrence {
	c := &bicgstab{v: k.newVec(), s: k.newVec(), t: k.newVec(), phat: k.newVec(), shat: k.newVec()}
	c.krylov = krylov{
		name: "BiCGStab", verifyP: true,
		// v is verified alongside x and r: a huge corruption in v can be
		// scaled below the detection threshold on its way into s (α =
		// ρ/r̂ᵀv divides it away), so the MVM output itself must be
		// checked while the raw inconsistency is still visible.
		outer:     []*DistVector{k.x, k.r, c.v},
		detectMsg: "outer-level: checksum mismatch in {x, r, v}",
		snapMsg:   "snapshot {p, x}",
	}
	return c
}

func (c *bicgstab) shape() *krylov { return &c.krylov }

func (c *bicgstab) scalars(s map[string]float64) {
	s["rhoPrev"], s["alpha"], s["omega"] = c.rhoPrev, c.alpha, c.omega
}

func (c *bicgstab) setScalars(s map[string]float64) {
	c.rhoPrev, c.alpha, c.omega = s["rhoPrev"], s["alpha"], s["omega"]
}

func (c *bicgstab) start(k *rankRun) error {
	c.rhat = vec.Clone(k.r.Data)
	c.rhoPrev, c.alpha, c.omega = 1, 1, 1
	return nil
}

// restart is the BiCGStab restart: α := 0 forces β = (ρ/ρ')·(α/ω) = 0 at
// the next iteration, collapsing the direction update to p := r, so the
// stale {p, v, ρ', ω} never enter the recurrence.
func (c *bicgstab) restart(k *rankRun) error {
	copyDist(k.p, k.r)
	c.rhoPrev, c.alpha, c.omega = 1, 0, 1
	return nil
}

func (c *bicgstab) restored(k *rankRun, snapIter int) error {
	if snapIter == 0 {
		return nil // iteration 0 sets p := r and rebuilds v itself
	}
	// v = A·M⁻¹·p, needed by the search-direction update.
	if err := k.pco(c.phat, k.p); err != nil {
		return err
	}
	k.mvmFresh(c.v, c.phat)
	return nil
}

func (c *bicgstab) step(k *rankRun) (status, error) {
	return c.iterate(k, k.x, k.r, k.p, c.v, c.s, c.t, c.phat, c.shat)
}

func (c *bicgstab) iterate(k *rankRun, x, r, p, v, s, t, phat, shat *DistVector) (status, error) {
	rho := k.dotRaw(c.rhat, r)
	if breakdownSuspect(rho) {
		return k.breakdown("ρ = %v", rho)
	}
	if k.i == 0 {
		copyDist(p, r)
	} else {
		// p = r + β·(p − ω·v)
		beta := (rho / c.rhoPrev) * (c.alpha / c.omega)
		k.axpy(p, -c.omega, v)
		k.xpby(p, r, beta, p)
	}
	if err := k.pco(phat, p); err != nil {
		return failed, err
	}
	k.mvm(v, phat)
	if k.opts.TwoLevel && !k.innerCheck(v, phat) {
		return faulted, nil
	}
	rhatV := k.dotRaw(c.rhat, v)
	if breakdownSuspect(rhatV) {
		return k.breakdown("r̂ᵀv = %v", rhatV)
	}
	c.alpha = rho / rhatV
	k.axpbyInto(s, 1, r, -c.alpha, v)

	if sNorm := k.norm2(s); sNorm/k.normB <= k.opts.Tol {
		k.axpy(x, c.alpha, phat)
		k.advance(sNorm)
		return k.exit(s, "intermediate residual"), nil
	}

	if err := k.pco(shat, s); err != nil {
		return failed, err
	}
	k.mvm(t, shat)
	if k.opts.TwoLevel && !k.innerCheck(t, shat) {
		return faulted, nil
	}
	tt := k.dot(t, t)
	if breakdownSuspect(tt) || tt < 0 {
		return k.breakdown("tᵀt = %v", tt)
	}
	c.omega = k.dot(t, s) / tt
	if breakdownSuspect(c.omega) {
		return k.breakdown("ω = %v", c.omega)
	}
	k.axpy(x, c.alpha, phat)
	k.axpy(x, c.omega, shat)
	k.axpbyInto(r, 1, s, -c.omega, t)
	c.rhoPrev = rho
	if k.advance(k.norm2(r)) {
		return k.exit(r, "residual"), nil
	}
	return advanced, nil
}
