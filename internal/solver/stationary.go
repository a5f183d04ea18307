package solver

import (
	"fmt"

	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Jacobi solves A·x = b with the stationary Jacobi iteration
// x ← x + D⁻¹(b − A·x). It converges for strictly diagonally dominant
// matrices and is the first of the paper's Fig. 1 representative methods —
// one with no orthogonality structure for the online-orthogonality baseline
// to exploit.
func Jacobi(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := make([]float64, n)
	diag := a.Diag(nil)
	for i, d := range diag {
		if d == 0 {
			return Result{}, fmt.Errorf("solver: Jacobi requires nonzero diagonal (row %d)", i)
		}
	}
	r := make([]float64, n)
	normB := vec.Norm2(b)
	if normB <= 0 {
		normB = 1
	}
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	res := Result{X: x}
	var relres float64
	for i := 0; i < maxIter; i++ {
		a.MulVec(r, x)
		vec.Sub(r, b, r) // r = b − A·x
		relres = vec.Norm2(r) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
		for j := range x {
			x[j] += r[j] / diag[j]
		}
		res.Iterations = i + 1
	}
	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: Jacobi after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}

// Chebyshev solves the SPD system A·x = b with the preconditioned Chebyshev
// semi-iteration given bounds [lmin, lmax] on the spectrum of M⁻¹A. It uses
// no inner products at all, the property that makes it attractive at scale
// and — like Jacobi — puts it outside the reach of orthogonality-based
// error detection (§2).
func Chebyshev(a *sparse.CSR, m precond.Preconditioner, b []float64, lmin, lmax float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	if lmin <= 0 || lmax <= lmin {
		return Result{}, fmt.Errorf("solver: Chebyshev needs 0 < lmin < lmax, got [%g, %g]", lmin, lmax)
	}
	n := a.Rows
	x := make([]float64, n)
	r := make([]float64, n)
	z := make([]float64, n)
	p := make([]float64, n)
	q := make([]float64, n)

	a.MulVec(r, x)
	vec.Sub(r, b, r)
	normB := vec.Norm2(b)
	if normB <= 0 {
		normB = 1
	}
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	theta := (lmax + lmin) / 2
	delta := (lmax - lmin) / 2
	var alpha, beta float64

	res := Result{X: x}
	relres := vec.Norm2(r) / normB
	if relres <= tol {
		res.Converged = true
		res.Residual = relres
		return res, nil
	}
	for i := 0; i < maxIter; i++ {
		if err := m.Apply(z, r); err != nil {
			return res, err
		}
		if i == 0 {
			vec.Copy(p, z)
			alpha = 1 / theta
		} else {
			beta = (delta * alpha / 2) * (delta * alpha / 2)
			alpha = 1 / (theta - beta/alpha)
			vec.Xpby(p, z, beta, p)
		}
		vec.Axpy(x, alpha, p)
		a.MulVec(q, p)
		vec.Axpy(r, -alpha, q)
		res.Iterations = i + 1
		relres = vec.Norm2(r) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
	}
	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: Chebyshev after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}

// SteepestDescent solves the SPD system A·x = b with the gradient descent
// iteration α = rᵀr/rᵀAr; mainly a reference method for tests.
func SteepestDescent(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := make([]float64, n)
	r := make([]float64, n)
	ar := make([]float64, n)
	a.MulVec(r, x)
	vec.Sub(r, b, r)
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
	for i := 0; i < maxIter; i++ {
		a.MulVec(ar, r)
		rr := vec.Dot(r, r)
		rar := vec.Dot(r, ar)
		if rar == 0 {
			return res, fmt.Errorf("solver: steepest descent breakdown at iteration %d", i)
		}
		alpha := rr / rar
		vec.Axpy(x, alpha, r)
		vec.Axpy(r, -alpha, ar)
		res.Iterations = i + 1
		relres = vec.Norm2(r) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
	}
	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: steepest descent after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}

// CR solves the symmetric system A·x = b with the conjugate residual
// method, one of the Krylov solvers the paper lists as protectable (§1).
func CR(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := make([]float64, n)
	r := make([]float64, n)
	p := make([]float64, n)
	ar := make([]float64, n)
	ap := make([]float64, n)

	a.MulVec(r, x)
	vec.Sub(r, b, r)
	vec.Copy(p, r)
	a.MulVec(ar, r)
	vec.Copy(ap, ar)
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
	rAr := vec.Dot(r, ar)
	for i := 0; i < maxIter; i++ {
		apap := vec.Dot(ap, ap)
		if apap == 0 || rAr == 0 {
			return res, fmt.Errorf("solver: CR breakdown at iteration %d", i)
		}
		alpha := rAr / apap
		vec.Axpy(x, alpha, p)
		vec.Axpy(r, -alpha, ap)
		res.Iterations = i + 1
		relres = vec.Norm2(r) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
		a.MulVec(ar, r)
		rArNew := vec.Dot(r, ar)
		beta := rArNew / rAr
		vec.Xpby(p, r, beta, p)
		vec.Xpby(ap, ar, beta, ap)
		rAr = rArNew
	}
	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: CR after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}
