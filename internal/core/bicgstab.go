package core

import (
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// UnprotectedPBiCGSTAB runs plain preconditioned BiCGSTAB with fault
// injection but no detection or recovery — the control arm and the
// substrate of OfflineResidualPBiCGSTAB.
func UnprotectedPBiCGSTAB(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPBiCGSTAB, Unprotected, a, m, b, opts)
}

// BasicPBiCGSTAB solves A·x = b with the basic online ABFT preconditioned
// BiCGSTAB, constructed with the §5.3 recipe: checksum updates after every
// vector-generating operation, verification of the x and r relationships
// every DetectInterval iterations, and checkpoints of the minimal vector set
// {x, p} (everything else is recomputable: r = b−Ax, v = A·M⁻¹p) plus the
// recurrence scalars.
//
// BiCGSTAB exercises the generality claim: it has no orthogonality relations
// for the Chen-style baseline to check (§6), and its two MVMs and two PCOs
// per iteration double the checksum-update load relative to PCG.
func BasicPBiCGSTAB(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPBiCGSTAB, Basic, a, m, b, opts)
}

// TwoLevelPBiCGSTAB adds triple-checksum inner-level protection after each
// of the two MVMs per iteration: single errors are corrected in place,
// multiple errors trigger immediate rollback.
func TwoLevelPBiCGSTAB(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPBiCGSTAB, TwoLevel, a, m, b, opts)
}

// bicgstab is the preconditioned BiCGSTAB recurrence.
type bicgstab struct {
	krylov
	v, s, t, phat, shat   *Vec
	rhat                  []float64 // shadow residual, fixed for the whole solve
	rhoPrev, alpha, omega float64
}

func newBiCGSTAB(be Backend) *bicgstab {
	c := &bicgstab{
		v: be.NewVec("v"), s: be.NewVec("s"), t: be.NewVec("t"),
		phat: be.NewVec("phat"), shat: be.NewVec("shat"),
		// r̂ is never checksummed: it takes a backend vector's data alone.
		rhat: be.NewVec("rhat").Data,
	}
	c.krylov = krylov{
		p: be.NewVec("p"),
		// v is verified alongside x and r: a huge corruption in v can be
		// scaled below the detection threshold on its way into s (α =
		// ρ/r̂ᵀv divides it away), so the MVM output itself must be
		// checked while the raw inconsistency is still visible.
		watch:      []*Vec{c.v},
		detectMsg:  "outer-level: checksum mismatch in {x, r, v}",
		snapMsg:    "snapshot {x, p}",
		rebuiltMsg: "r, v",
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

func (c *bicgstab) start(k *run) error {
	copy(c.rhat, k.r.Data)
	c.rhoPrev, c.alpha, c.omega = 1, 1, 1
	return nil
}

// restart is the BiCGStab restart: α := 0 forces β = (ρ/ρ')·(α/ω) = 0 at
// the next iteration, so the direction update collapses to p := r and the
// stale {p, v, ρ', ω} never enter the recurrence.
func (c *bicgstab) restart(k *run) error {
	c.rhoPrev, c.alpha, c.omega = 1, 0, 1
	copyVec(c.p, k.r)
	return nil
}

func (c *bicgstab) restored(k *run, snapIter int, lossy bool) error {
	if lossy {
		if err := c.restart(k); err != nil {
			return err
		}
	}
	if snapIter == 0 {
		return nil // iteration 0 sets p := r and rebuilds v itself
	}
	// v = A·M⁻¹·p, needed by the search-direction update — and by the next
	// detection boundary, which verifies v and must not re-flag a
	// corruption the rollback already discarded. Under a lossy restart p is
	// the reconstructed residual, so v is rebuilt against the restarted
	// direction.
	if err := k.PrecondClean(c.phat, c.p); err != nil {
		return err
	}
	k.MulClean(c.v, c.phat)
	k.res.Stats.RecoveryMVMs++
	return nil
}

func (c *bicgstab) step(k *run) (status, error) {
	return c.iterate(k, k.x, k.r, c.p, c.v, c.s, c.t, c.phat, c.shat)
}

func (c *bicgstab) iterate(k *run, x, r, p, v, s, t, phat, shat *Vec) (status, error) {
	i := k.i
	rho := k.Dot(c.rhat, r.Data)
	if k.g.suspect(rho) {
		return k.scalarFault("ρ = %g", rho), nil
	}
	if rho == 0 {
		return failed, k.breakdown("ρ = 0")
	}
	if i == 0 {
		copyVec(p, r)
	} else {
		// p = r + β·(p − ω·v)
		beta := (rho / c.rhoPrev) * (c.alpha / c.omega)
		k.Axpy(i, p, -c.omega, v)
		k.Xpby(i, p, r, beta, p)
	}
	if err := k.PCO(i, phat, p); err != nil {
		return failed, err
	}
	k.MVM(i, v, phat)
	if k.g.inner(k, i, v, phat) || k.TakeFlag() {
		return faulted, nil
	}
	rhatV := k.Dot(c.rhat, v.Data)
	if k.g.suspect(rhatV) {
		return k.scalarFault("r̂ᵀv = %g", rhatV), nil
	}
	if rhatV == 0 {
		return failed, k.breakdown("r̂ᵀv = 0")
	}
	c.alpha = rho / rhatV
	k.Axpby(i, s, 1, r, -c.alpha, v)

	if sNorm := k.Norm2(s.Data); sNorm/k.normB <= k.tol {
		k.Axpy(i, x, c.alpha, phat)
		k.advance(sNorm)
		return k.g.exit(k, s), nil
	}

	if err := k.PCO(i, shat, s); err != nil {
		return failed, err
	}
	k.MVM(i, t, shat)
	if k.g.inner(k, i, t, shat) || k.TakeFlag() {
		return faulted, nil
	}
	tt := k.Dot(t.Data, t.Data)
	if k.g.suspect(tt) {
		return k.scalarFault("tᵀt = %g", tt), nil
	}
	if tt <= 0 {
		return failed, k.breakdown("tᵀt = 0")
	}
	c.omega = k.Dot(t.Data, s.Data) / tt
	if c.omega == 0 {
		return failed, k.breakdown("ω = 0")
	}
	k.Axpy(i, x, c.alpha, phat)
	k.Axpy(i, x, c.omega, shat)
	k.Axpby(i, r, 1, s, -c.omega, t)
	if k.TakeFlag() {
		return faulted, nil
	}
	c.rhoPrev = rho
	if k.advance(k.Norm2(r.Data)) {
		return k.g.exit(k, r), nil
	}
	return advanced, nil
}
