// Package solver implements the unprotected iterative methods the paper
// targets (Fig. 1 and §6): Jacobi, Chebyshev, preconditioned CG and
// BiCGSTAB (precond.Identity gives the plain methods), conjugate residual
// and steepest descent. These serve both as the fault-free performance
// baselines for the overhead experiments and as the loop skeletons the ABFT
// schemes in internal/core instrument.
package solver

import (
	"errors"
	"fmt"

	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// ErrNotConverged is wrapped by solvers that exhaust MaxIter without
// reaching the requested tolerance.
var ErrNotConverged = errors.New("solver: did not converge")

// Options configures an iterative solve.
type Options struct {
	// Tol is the relative residual tolerance ‖r‖₂/‖b‖₂; 0 means 1e-8.
	Tol float64
	// MaxIter caps iterations; 0 means 10·n.
	MaxIter int
}

func (o Options) tol() float64 {
	if o.Tol <= 0 {
		return 1e-8
	}
	return o.Tol
}

func (o Options) maxIter(n int) int {
	if o.MaxIter <= 0 {
		return 10 * n
	}
	return o.MaxIter
}

// Result reports the outcome of an iterative solve.
type Result struct {
	// X is the computed solution.
	X []float64
	// Iterations is the number of iterations performed.
	Iterations int
	// Converged reports whether the tolerance was met.
	Converged bool
	// Residual is the final relative residual ‖b−Ax‖₂/‖b‖₂ as tracked by
	// the recurrence (not recomputed).
	Residual float64
}

func checkSystem(a *sparse.CSR, b []float64) error {
	if a.Rows != a.Cols {
		return fmt.Errorf("solver: matrix must be square, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return fmt.Errorf("solver: rhs length %d, want %d", len(b), a.Rows)
	}
	return nil
}

// PCG solves the SPD system A·x = b with the preconditioned conjugate
// gradient method, following the loop of the paper's Fig. 1 exactly: one
// MVM, one PCO, three vector updates and two dot products per iteration.
func PCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)

	a.MulVec(r, x)
	vec.Sub(r, b, r) // r = b − A·x
	normB := vec.Norm2(b)
	if normB <= 0 {
		normB = 1
	}
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	res := Result{X: x}
	relres := vec.Norm2(r) / normB
	if relres <= tol {
		res.Converged = true
		res.Residual = relres
		return res, nil
	}
	if err := m.Apply(z, r); err != nil {
		return res, err
	}
	vec.Copy(p, z)
	rho := vec.Dot(r, z)
	for i := 0; i < maxIter; i++ {
		a.MulVec(q, p)
		pq := vec.Dot(p, q)
		if pq == 0 {
			return res, fmt.Errorf("solver: PCG breakdown (pᵀAp = 0) at iteration %d", i)
		}
		alpha := rho / pq
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, q)
		res.Iterations = i + 1
		relres = vec.Norm2(r) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
		if err := m.Apply(z, r); err != nil {
			return res, err
		}
		rhoNew := vec.Dot(r, z)
		beta := rhoNew / rho
		vec.Xpby(p, z, beta, p)
		rho = rhoNew
	}
	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: PCG after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}

// PBiCGSTAB solves A·x = b with the preconditioned BiCGSTAB method of van
// der Vorst (two MVMs and two PCOs per iteration, the cost structure §6.3
// highlights).
func PBiCGSTAB(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := make([]float64, n)
	r := make([]float64, n)
	rhat := make([]float64, n)
	p := make([]float64, n)
	v := make([]float64, n)
	s := make([]float64, n)
	t := make([]float64, n)
	phat := make([]float64, n)
	shat := make([]float64, n)

	a.MulVec(r, x)
	vec.Sub(r, b, r)
	vec.Copy(rhat, r)
	normB := vec.Norm2(b)
	if normB <= 0 {
		normB = 1
	}
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	res := Result{X: x}
	relres := vec.Norm2(r) / normB
	if relres <= tol {
		res.Converged = true
		res.Residual = relres
		return res, nil
	}
	rhoPrev, alpha, omega := 1.0, 1.0, 1.0
	for i := 0; i < maxIter; i++ {
		rho := vec.Dot(rhat, r)
		if rho == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (ρ = 0) at iteration %d", i)
		}
		if i == 0 {
			vec.Copy(p, r)
		} else {
			beta := (rho / rhoPrev) * (alpha / omega)
			// p = r + beta*(p − omega*v)
			vec.Axpy(p, -omega, v)
			vec.Xpby(p, r, beta, p)
		}
		if err := m.Apply(phat, p); err != nil {
			return res, err
		}
		a.MulVec(v, phat)
		rhatV := vec.Dot(rhat, v)
		if rhatV == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (r̂ᵀv = 0) at iteration %d", i)
		}
		alpha = rho / rhatV
		// s = r − alpha*v
		vec.Axpby(s, 1, r, -alpha, v)
		res.Iterations = i + 1
		if rel := vec.Norm2(s) / normB; rel <= tol {
			vec.Axpy(x, alpha, phat)
			relres = rel
			res.Converged = true
			break
		}
		if err := m.Apply(shat, s); err != nil {
			return res, err
		}
		a.MulVec(t, shat)
		tt := vec.Dot(t, t)
		if tt <= 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (tᵀt = 0) at iteration %d", i)
		}
		omega = vec.Dot(t, s) / tt
		if omega == 0 {
			return res, fmt.Errorf("solver: BiCGSTAB breakdown (ω = 0) at iteration %d", i)
		}
		vec.Axpy(x, alpha, phat)
		vec.Axpy(x, omega, shat)
		// r = s − omega*t
		vec.Axpby(r, 1, s, -omega, t)
		relres = vec.Norm2(r) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
		rhoPrev = rho
	}
	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: PBiCGSTAB after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}
