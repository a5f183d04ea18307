package core

import "newsum/internal/sparse"

// BasicCR solves the symmetric system A·x = b with the conjugate residual
// method under basic online ABFT protection — another §1-listed Krylov
// solver built from the same four vector-generating operations.
//
// Dependency analysis (§5.3 step 4): the CR recurrence keeps x, r, p and
// the products Ar, Ap. Errors anywhere propagate into x and r, so the
// outer level verifies those two; the checkpoint set is {x, p} with the
// scalar rᵀAr — r is recomputed as b − A·x and the products as A·r, A·p
// (three recovery MVMs).
func BasicCR(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	return Solve(MethodCR, Basic, a, nil, b, opts)
}

// cr is the conjugate residual recurrence.
type cr struct {
	krylov
	ar, ap *Vec
	rAr    float64
}

func newCR(be Backend) *cr {
	c := &cr{ar: be.NewVec("ar"), ap: be.NewVec("ap")}
	c.krylov = krylov{
		p: be.NewVec("p"),
		// Unlike PCG/BiCGStab there is no preconditioner solve dividing the
		// carried checksum error back down by d, so the Ar/Ap recurrences
		// amplify the round-off bound η by ~(d·α + β) per iteration; left
		// unanchored it swallows genuine corruption within a few detect
		// windows. Verifying (and thereby re-anchoring) them at every
		// boundary breaks that growth and catches a fault while it still
		// lives in the product recurrences, before it reaches x or r.
		watch:      []*Vec{c.ar, c.ap},
		detectMsg:  "outer-level: checksum(x)/checksum(r) mismatch",
		snapMsg:    "snapshot {x, p}",
		rebuiltMsg: "r, Ar, Ap",
		restartMsg: "re-projected {p, Ar, Ap} (CR restart)",
	}
	return c
}

func (c *cr) shape() *krylov                  { return &c.krylov }
func (c *cr) scalars(s map[string]float64)    { s["rAr"] = c.rAr }
func (c *cr) setScalars(s map[string]float64) { c.rAr = s["rAr"] }

func (c *cr) start(k *run) error {
	c.reproject(k)
	return nil
}

// restart is the CR restart, the only repair the stored product family
// ever gets. Ar and Ap must equal A·r and A·p *exactly* — x advances by
// α·p while r retreats by α·Ap, so any mismatch breaks the b − A·x
// invariant — and a data repair of r invalidates the whole family (Ar was
// computed from the pre-repair r, p and Ap carry its propagation; a
// corrupted p additionally invalidates rᵀAr). So nothing here is repaired
// element-wise: every failed verification rebuilds all three vectors from
// identity-exact state.
func (c *cr) restart(k *run) error {
	c.reproject(k)
	k.res.Stats.RecoveryMVMs++
	return nil
}

// reproject sets Ar = A·r, p := r, Ap := Ar and rᵀAr from the current r.
func (c *cr) reproject(k *run) {
	k.MulClean(c.ar, k.r)
	copyVec(c.p, k.r)
	copyVec(c.ap, c.ar)
	c.rAr = k.Dot(k.r.Data, c.ar.Data)
}

func (c *cr) restored(k *run, _ int, lossy bool) error {
	if lossy {
		return c.restart(k)
	}
	k.MulClean(c.ar, k.r)
	k.MulClean(c.ap, c.p)
	k.res.Stats.RecoveryMVMs += 2
	return nil
}

func (c *cr) step(k *run) (status, error) {
	return c.iterate(k, k.x, k.r, c.p, c.ar, c.ap)
}

func (c *cr) iterate(k *run, x, r, p, ar, ap *Vec) (status, error) {
	i := k.i
	apap := k.Dot(ap.Data, ap.Data)
	if k.g.suspect(apap) || k.g.suspect(c.rAr) {
		return k.scalarFault("ApᵀAp = %g or rᵀAr = %g", apap, c.rAr), nil
	}
	if apap == 0 || c.rAr == 0 {
		return failed, k.breakdown("ApᵀAp = 0 or rᵀAr = 0")
	}
	alpha := c.rAr / apap
	k.Axpy(i, x, alpha, p)
	k.Axpy(i, r, -alpha, ap)
	if k.TakeFlag() {
		return faulted, nil
	}
	if k.advance(k.Norm2(r.Data)) {
		return k.g.exit(k, r), nil
	}
	k.MVM(i, ar, r)
	if k.g.inner(k, ar, r) {
		return faulted, nil
	}
	rArNew := k.Dot(r.Data, ar.Data)
	beta := rArNew / c.rAr
	k.Xpby(i, p, r, beta, p)
	k.Xpby(i, ap, ar, beta, ap)
	c.rAr = rArNew
	if k.TakeFlag() {
		return faulted, nil
	}
	return advanced, nil
}
