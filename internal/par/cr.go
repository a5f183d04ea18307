package par

import "newsum/internal/sparse"

// ABFTCR runs the online ABFT conjugate residual method distributed over
// nranks goroutine ranks — the third §1-listed Krylov solver on the shared
// rank driver, unpreconditioned like its serial core counterpart. The CR
// recurrence keeps x, r, p and the products Ar, Ap; errors anywhere
// propagate into x and r, so the outer level verifies those two, and the
// checkpoint set is {x, p} with the scalar rᵀAr — r is recomputed as
// b − A·x and the products as A·r, A·p (three recovery MVMs).
func ABFTCR(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	return solve(a, b, nranks, opts, false, newCR)
}

// cr is the conjugate residual recurrence.
type cr struct {
	krylov
	ar, ap *DistVector
	rAr    float64
}

// newCR seeds the product family from r = b before ‖b‖ is taken.
func newCR(k *rankRun) recurrence {
	c := &cr{ar: k.newVec(), ap: k.newVec()}
	c.krylov = krylov{
		name: "CR", verifyP: true, forward: true,
		// Unlike PCG/BiCGStab there is no preconditioner solve dividing the
		// carried checksum error back down by d, so the Ar/Ap recurrences
		// amplify round-off by ~(d·α + β) per iteration. Verifying (and
		// thereby re-anchoring) them at every detect boundary breaks that
		// growth and catches a fault while it still lives in the product
		// recurrences, before it reaches x or r.
		outer:      []*DistVector{k.x, k.r, c.ar, c.ap},
		detectMsg:  "outer-level: checksum mismatch in {x, r, Ar, Ap}",
		snapMsg:    "snapshot {p, x}",
		restartMsg: "re-projected {p, Ar, Ap} (CR restart)",
	}
	c.reproject(k)
	return c
}

func (c *cr) shape() *krylov                  { return &c.krylov }
func (c *cr) scalars(s map[string]float64)    { s["rAr"] = c.rAr }
func (c *cr) setScalars(s map[string]float64) { c.rAr = s["rAr"] }

func (c *cr) start(k *rankRun) error {
	c.rAr = k.dot(k.r, c.ar)
	return nil
}

// restart is the CR restart, the only repair the stored product family
// ever gets. Ar and Ap must equal A·r and A·p exactly or the r update
// breaks the b − A·x invariant, and a data repair of r invalidates the
// whole family (Ar was computed from the pre-repair r, p and Ap carry its
// propagation), so every failed verification rebuilds all three vectors
// from identity-exact state: Ar = A·r, p := r, Ap := Ar, rᵀAr fresh.
func (c *cr) restart(k *rankRun) error {
	c.reproject(k)
	return c.start(k)
}

// reproject sets Ar = A·r, p := r and Ap := Ar from the current r.
func (c *cr) reproject(k *rankRun) {
	k.mvmFresh(c.ar, k.r)
	copyDist(k.p, k.r)
	copyDist(c.ap, c.ar)
}

func (c *cr) restored(k *rankRun, _ int, lossy bool) error {
	if lossy {
		return nil // the restart rebuilt the family
	}
	k.mvmFresh(c.ar, k.r)
	k.mvmFresh(c.ap, k.p)
	return nil
}

//hot:loop CR iteration (§5.3 construction)
func (c *cr) step(k *rankRun) (status, error) {
	return c.iterate(k, k.x, k.r, k.p, c.ar, c.ap)
}

//hot:protected x r p ar ap
func (c *cr) iterate(k *rankRun, x, r, p, ar, ap *DistVector) (status, error) {
	apap := k.dot(ap, ap)
	//hot:cold suspect-scalar detection
	if breakdownSuspect(apap) || breakdownSuspect(c.rAr) {
		return k.breakdown("ApᵀAp = %v, rᵀAr = %v", apap, c.rAr)
	}
	alpha := c.rAr / apap
	k.axpy(x, alpha, p)
	k.axpy(r, -alpha, ap)
	if k.advance(k.norm2(r)) {
		return k.exit(r, "residual"), nil
	}
	// The iteration's protected MVM carries the fault coordinate of the
	// loop index it tops off (curIter is still i−1 here, matching the
	// serial solver's bookkeeping).
	k.mvm(ar, r)
	if k.opts.TwoLevel && !k.innerCheck(ar, r) {
		return faulted, nil
	}
	rArNew := k.dot(r, ar)
	beta := rArNew / c.rAr
	k.xpby(p, r, beta, p)
	k.xpby(ap, ar, beta, ap)
	c.rAr = rArNew
	return advanced, nil
}
