package core

import (
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// BasicJacobi solves A·x = b with the stationary Jacobi iteration under
// basic online ABFT protection. Jacobi and Chebyshev are the paper's
// examples (Fig. 1) of iterative methods with no orthogonality structure:
// the orthogonality baseline cannot protect them at all, while the new-sum
// scheme instruments them with the same four vector-generating operations
// and the driver runs them like any Krylov method.
func BasicJacobi(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	if err := validateSystem(a, b); err != nil { // before the diagonal is read
		return Result{}, err
	}
	diagM, err := precond.Jacobi(a)
	if err != nil {
		return Result{}, err
	}
	return solve(methodJacobi, Basic, a, diagM, b, opts, newJacobi)
}

// jacobi is the stationary Jacobi recurrence. Per iteration: w := A·x (MVM),
// r := b − w (VLO), u := D⁻¹r (PCO), x := x + u (VLO). Since r, w and u are
// recomputed from x every iteration, verifying checksum(x) alone covers
// every vector, and the checkpoint set is just {x}.
type jacobi struct {
	krylov
	w, u *Vec
}

func newJacobi(be Backend) recurrence {
	return &jacobi{
		krylov: krylov{
			xOnly:      true,
			detectMsg:  "outer-level: checksum(x) mismatch",
			snapMsg:    "snapshot {x}",
			rebuiltMsg: "nothing (r is rebuilt from x every iteration)",
		},
		w: be.NewVec("w"),
		u: be.NewVec("u"),
	}
}

func (c *jacobi) shape() *krylov                 { return &c.krylov }
func (c *jacobi) scalars(map[string]float64)     {}
func (c *jacobi) setScalars(map[string]float64)  {}
func (c *jacobi) start(*run) error               { return nil }
func (c *jacobi) restart(*run) error             { return nil }
func (c *jacobi) restored(*run, int, bool) error { return nil }
func (c *jacobi) step(k *run) (status, error)    { return c.iterate(k, k.x, k.r, c.w, c.u) }

// iterate tests convergence on the residual of the iterate it was handed,
// before moving it, so the solve closes on an x whose residual it has seen:
// the iteration count is the number of x updates.
func (c *jacobi) iterate(k *run, x, r, w, u *Vec) (status, error) {
	i := k.i
	k.MVM(i, w, x)
	k.Axpby(i, r, 1, k.b, -1, w)
	if k.TakeFlag() {
		return faulted, nil
	}
	if k.observe(k.Norm2(r.Data)) {
		return k.g.exit(k, r), nil
	}
	if err := k.PCO(i, u, r); err != nil {
		return failed, err
	}
	k.Axpy(i, x, 1, u)
	if k.TakeFlag() {
		return faulted, nil
	}
	k.i++
	k.res.Iterations = k.i
	return advanced, nil
}

// BasicChebyshev solves the SPD system A·x = b with the preconditioned
// Chebyshev semi-iteration under basic online ABFT protection, given
// spectral bounds [lmin, lmax] of M⁻¹A. Chebyshev has no inner products,
// so there is nothing for residual/orthogonality-based detection to hook
// into — but its MVM, PCO and VLOs carry checksums exactly like PCG's.
func BasicChebyshev(a *sparse.CSR, m precond.Preconditioner, b []float64, lmin, lmax float64, opts Options) (Result, error) {
	if lmin <= 0 || lmax <= lmin {
		return Result{}, breakdownErr("Chebyshev", Basic, 0, "need 0 < lmin < lmax")
	}
	return solve(methodChebyshev, Basic, a, m, b, opts, func(be Backend) recurrence {
		return &chebyshev{
			krylov: krylov{
				p:          be.NewVec("p"),
				detectMsg:  "outer-level: checksum(x)/checksum(r) mismatch",
				snapMsg:    "snapshot {p, x}",
				rebuiltMsg: "r",
			},
			z:     be.NewVec("z"),
			q:     be.NewVec("q"),
			theta: (lmax + lmin) / 2,
			delta: (lmax - lmin) / 2,
		}
	})
}

// chebyshev is the preconditioned Chebyshev semi-iteration. The checkpoint
// set is {p, x} with the step length α; r is recomputed as b − A·x.
type chebyshev struct {
	krylov
	z, q         *Vec
	theta, delta float64 // centre and half-width of the spectral interval
	alpha        float64
}

func (c *chebyshev) shape() *krylov                  { return &c.krylov }
func (c *chebyshev) scalars(s map[string]float64)    { s["alpha"] = c.alpha }
func (c *chebyshev) setScalars(s map[string]float64) { c.alpha = s["alpha"] }
func (c *chebyshev) start(*run) error                { return nil } // iteration 0 sets p := z itself
func (c *chebyshev) restart(*run) error              { return nil }

func (c *chebyshev) restored(k *run, _ int, lossy bool) error {
	if lossy {
		k.Reanchor(c.p)
	}
	return nil
}

func (c *chebyshev) step(k *run) (status, error) { return c.iterate(k, k.x, k.r, c.z, c.p, c.q) }

func (c *chebyshev) iterate(k *run, x, r, z, p, q *Vec) (status, error) {
	i := k.i
	if err := k.PCO(i, z, r); err != nil {
		return failed, err
	}
	if i == 0 {
		copyVec(p, z)
		c.alpha = 1 / c.theta
	} else {
		beta := (c.delta * c.alpha / 2) * (c.delta * c.alpha / 2)
		c.alpha = 1 / (c.theta - beta/c.alpha)
		k.Xpby(i, p, z, beta, p)
	}
	k.Axpy(i, x, c.alpha, p)
	k.MVM(i, q, p)
	k.Axpy(i, r, -c.alpha, q)
	if k.TakeFlag() {
		return faulted, nil
	}
	if k.advance(k.Norm2(r.Data)) {
		return k.g.exit(k, r), nil
	}
	return advanced, nil
}
