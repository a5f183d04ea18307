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
	ar, ap *tracked
	rAr    float64
}

func newCR(e *engine) *cr {
	c := &cr{ar: e.newTracked("ar"), ap: e.newTracked("ap")}
	c.krylov = krylov{
		p: e.newTracked("p"),
		// Unlike PCG/BiCGStab there is no preconditioner solve dividing the
		// carried checksum error back down by d, so the Ar/Ap recurrences
		// amplify the round-off bound η by ~(d·α + β) per iteration; left
		// unanchored it swallows genuine corruption within a few detect
		// windows. Verifying (and thereby re-anchoring) them at every
		// boundary breaks that growth and catches a fault while it still
		// lives in the product recurrences, before it reaches x or r.
		watch:      []*tracked{c.ar, c.ap},
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
	k.e.mulVec(c.ar.data, k.r.data)
	k.e.recompute(c.ar)
	copyTracked(c.p, k.r)
	copyTracked(c.ap, c.ar)
	c.rAr = k.dot(k.r.data, c.ar.data)
}

func (c *cr) restored(k *run, _ int, lossy bool) error {
	if lossy {
		return c.restart(k)
	}
	k.e.mulVec(c.ar.data, k.r.data)
	k.e.recompute(c.ar)
	k.e.mulVec(c.ap.data, c.p.data)
	k.e.recompute(c.ap)
	k.res.Stats.RecoveryMVMs += 2
	return nil
}

func (c *cr) step(k *run) (status, error) {
	return c.iterate(k, k.x, k.r, c.p, c.ar, c.ap)
}

func (c *cr) iterate(k *run, x, r, p, ar, ap *tracked) (status, error) {
	i := k.i
	apap := k.dot(ap.data, ap.data)
	if k.g.suspect(apap) || k.g.suspect(c.rAr) {
		return k.scalarFault("ApᵀAp = %g or rᵀAr = %g", apap, c.rAr), nil
	}
	if apap == 0 || c.rAr == 0 {
		return failed, k.breakdown("ApᵀAp = 0 or rᵀAr = 0")
	}
	alpha := c.rAr / apap
	k.axpy(i, x, alpha, p)
	k.axpy(i, r, -alpha, ap)
	if k.e.takeFlag() {
		return faulted, nil
	}
	if k.advance(k.norm2(r.data)) {
		return k.g.exit(k, r), nil
	}
	k.mvm(i, ar, r)
	rArNew := k.dot(r.data, ar.data)
	beta := rArNew / c.rAr
	k.xpby(i, p, r, beta, p)
	k.xpby(i, ap, ar, beta, ap)
	c.rAr = rArNew
	if k.e.takeFlag() {
		return faulted, nil
	}
	return advanced, nil
}
