package core

import (
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// UnprotectedPCG runs plain PCG with fault injection but no detection or
// recovery of any kind. It is the substrate of the offline-residual scheme
// and the control arm of the coverage experiments: whatever the injector
// corrupts stays corrupted.
func UnprotectedPCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPCG, Unprotected, a, m, b, opts)
}

// BasicPCG solves the SPD system A·x = b with the paper's basic online ABFT
// preconditioned conjugate gradient (Algorithm 1, Fig. 3): single-checksum
// updates after every vector-generating operation, lazy verification of the
// x and r relationships every DetectInterval iterations, and checkpointing
// of only the p and x vectors every CheckpointInterval iterations.
func BasicPCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPCG, Basic, a, m, b, opts)
}

// TwoLevelPCG solves A·x = b with the paper's two-level online ABFT PCG
// (Algorithm 2, Fig. 4): triple-checksum inner-level protection after every
// MVM — correcting single errors immediately and rolling back on multiple
// errors — combined with the Basic outer level.
func TwoLevelPCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPCG, TwoLevel, a, m, b, opts)
}

// pcg is the preconditioned conjugate gradient recurrence. The checkpoint
// set is {p, x} with ρ; r is recomputed as b − A·x.
type pcg struct {
	krylov
	z, q *Vec
	rho  float64
}

func newPCG(be Backend) *pcg {
	return &pcg{
		krylov: krylov{
			p:          be.NewVec("p"),
			detectMsg:  "outer-level: checksum(x)/checksum(r) mismatch",
			snapMsg:    "snapshot {p, x}",
			rebuiltMsg: "r",
			restartMsg: "re-projected search direction (CG restart)",
		},
		z: be.NewVec("z"),
		q: be.NewVec("q"),
	}
}

func (c *pcg) shape() *krylov                  { return &c.krylov }
func (c *pcg) scalars(s map[string]float64)    { s["rho"] = c.rho }
func (c *pcg) setScalars(s map[string]float64) { c.rho = s["rho"] }
func (c *pcg) start(k *run) error              { return c.restart(k) }

// restart is the CG restart: z = M⁻¹r, p := z, ρ = rᵀz. After a forward
// repair of r it is what keeps the repair honest — z and p were computed
// from the pre-repair r at the tail of the previous iteration, so they are
// polluted with checksum-consistent garbage; restarting from the repaired
// residual preserves convergence at the cost of rebuilding the direction.
func (c *pcg) restart(k *run) error {
	if err := k.PCO(-1, c.z, k.r); err != nil {
		return err
	}
	copyVec(c.p, c.z)
	c.rho = k.Dot(k.r.Data, c.z.Data)
	return nil
}

func (c *pcg) restored(k *run, _ int, lossy bool) error {
	if lossy {
		return c.restart(k)
	}
	return nil
}

func (c *pcg) step(k *run) (status, error) {
	return c.iterate(k, k.x, k.r, c.z, c.p, c.q)
}

func (c *pcg) iterate(k *run, x, r, z, p, q *Vec) (status, error) {
	i := k.i
	k.MVM(i, q, p)
	// Inner-level protection on the MVM output, then eager detection (if
	// enabled), which flags a corrupted output the moment it is produced;
	// recovery is the same rollback.
	if k.g.inner(k, q, p) || k.TakeFlag() {
		return faulted, nil
	}
	pq := k.Dot(p.Data, q.Data)
	if k.g.suspect(pq) {
		return k.scalarFault("pᵀAp = %g", pq), nil
	}
	if pq == 0 {
		return failed, k.breakdown("pᵀAp = 0")
	}
	alpha := c.rho / pq
	k.Axpy(i, x, alpha, p)
	k.Axpy(i, r, -alpha, q)
	if k.TakeFlag() {
		return faulted, nil
	}
	if k.advance(k.Norm2(r.Data)) {
		return k.g.exit(k, r), nil
	}
	if err := k.PCO(i, z, r); err != nil {
		return failed, err
	}
	rhoNew := k.Dot(r.Data, z.Data)
	beta := rhoNew / c.rho
	k.Xpby(i, p, z, beta, p)
	c.rho = rhoNew
	if k.TakeFlag() {
		return faulted, nil
	}
	return advanced, nil
}
