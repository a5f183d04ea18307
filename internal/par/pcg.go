package par

import "newsum/internal/sparse"

// ABFTPCG runs the basic online ABFT PCG distributed over nranks goroutine
// ranks with a block-Jacobi ILU(0) preconditioner whose blocks coincide
// with the rank partition (the PETSc configuration of §6.3). All checksum
// state and checkpoints are rank-local; verification needs only scalar
// all-reductions, reproducing the paper's locality argument.
func ABFTPCG(a *sparse.CSR, b []float64, nranks int, opts Options) (Result, error) {
	return solve(a, b, nranks, opts, true, newPCG)
}

// pcg is the preconditioned conjugate gradient recurrence. The checkpoint
// set is {p, x} with ρ; r is recomputed as b − A·x.
type pcg struct {
	krylov
	z, q *DistVector
	rho  float64
}

func newPCG(k *rankRun) recurrence {
	return &pcg{z: k.newVec(), q: k.newVec(), krylov: krylov{
		name: "PCG", forward: true, outer: []*DistVector{k.x, k.r},
		detectMsg:  "outer-level: checksum(x)/checksum(r) mismatch",
		snapMsg:    "snapshot {p, x}",
		restartMsg: "re-projected search direction (CG restart)",
	}}
}

func (c *pcg) shape() *krylov                  { return &c.krylov }
func (c *pcg) scalars(s map[string]float64)    { s["rho"] = c.rho }
func (c *pcg) setScalars(s map[string]float64) { c.rho = s["rho"] }
func (c *pcg) start(k *rankRun) error          { return c.restart(k) }

// restart is the CG restart: z = M⁻¹r, p := z, ρ = rᵀz. After a forward
// repair of r it keeps the repair honest: z and p were computed from the
// pre-repair r at the previous tail, so the recurrence restarts from the
// repaired residual.
func (c *pcg) restart(k *rankRun) error {
	if err := k.pco(c.z, k.r); err != nil {
		return err
	}
	copyDist(k.p, c.z)
	c.rho = k.dot(k.r, c.z)
	return nil
}

func (c *pcg) restored(*rankRun, int, bool) error { return nil }

//hot:loop PCG iteration (Algorithm 1 / 2)
func (c *pcg) step(k *rankRun) (status, error) {
	return c.iterate(k, k.x, k.r, c.z, k.p, c.q)
}

//hot:protected x r z p q
func (c *pcg) iterate(k *rankRun, x, r, z, p, q *DistVector) (status, error) {
	k.mvm(q, p)
	if k.opts.TwoLevel && !k.innerCheck(q, p) {
		return faulted, nil
	}
	pq := k.dot(p, q)
	//hot:cold suspect-scalar detection
	if breakdownSuspect(pq) {
		return k.breakdown("pᵀAp = %v", pq)
	}
	alpha := c.rho / pq
	k.axpy(x, alpha, p)
	k.axpy(r, -alpha, q)
	if k.advance(k.norm2(r)) {
		return k.exit(r, "residual"), nil
	}
	if err := k.pco(z, r); err != nil {
		return failed, err
	}
	rhoNew := k.dot(r, z)
	beta := rhoNew / c.rho
	k.xpby(p, z, beta, p)
	c.rho = rhoNew
	return advanced, nil
}
