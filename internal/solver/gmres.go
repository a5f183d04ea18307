package solver

import (
	"fmt"
	"math"

	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// GMRES solves the general system A·x = b with restarted GMRES(m) and an
// optional right preconditioner: it builds an Arnoldi basis of the Krylov
// space of A·M⁻¹, minimizing the residual over it via Givens rotations.
// GMRES is on the paper's list of protectable Krylov methods (§1); its
// inner loop is exactly one MVM + one PCO + a sequence of VLOs per step,
// so the new-sum checksum updates apply verbatim.
func GMRES(a *sparse.CSR, m precond.Preconditioner, b []float64, restart int, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	if restart < 1 {
		restart = 30
	}
	if restart > n {
		restart = n
	}
	if m == nil {
		m = precond.Identity(n)
	}
	x := make([]float64, n)
	normB := vec.Norm2(b)
	if normB <= 0 {
		normB = 1
	}
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	// Arnoldi basis and Hessenberg matrix (column-major, restart+1 rows).
	v := make([][]float64, restart+1)
	for i := range v {
		v[i] = make([]float64, n)
	}
	h := make([][]float64, restart+1)
	for i := range h {
		h[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)
	w := make([]float64, n)
	zhat := make([]float64, n)

	res := Result{X: x}
	var relres float64
	total := 0

	for total < maxIter {
		// r0 = b − A·x.
		a.MulVec(w, x)
		vec.Sub(w, b, w)
		beta := vec.Norm2(w)
		relres = beta / normB
		if relres <= tol {
			res.Converged = true
			break
		}
		vec.Scale(v[0], 1/beta, w)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		for ; k < restart && total < maxIter; k++ {
			total++
			// w = A·M⁻¹·v_k (right preconditioning keeps the residual of
			// the original system observable).
			if err := m.Apply(zhat, v[k]); err != nil {
				return res, err
			}
			a.MulVec(w, zhat)
			// Modified Gram-Schmidt.
			for i := 0; i <= k; i++ {
				h[i][k] = vec.Dot(w, v[i])
				vec.Axpy(w, -h[i][k], v[i])
			}
			h[k+1][k] = vec.Norm2(w)
			if h[k+1][k] > 0 {
				vec.Scale(v[k+1], 1/h[k+1][k], w)
			}
			// Apply stored Givens rotations to the new column.
			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			// New rotation annihilating h[k+1][k].
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom <= 0 {
				return res, fmt.Errorf("solver: GMRES breakdown at step %d", total)
			}
			cs[k] = h[k][k] / denom
			sn[k] = h[k+1][k] / denom
			h[k][k] = denom
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] *= cs[k]

			relres = math.Abs(g[k+1]) / normB
			res.Iterations = total
			if relres <= tol {
				k++
				break
			}
		}

		// Solve the k×k triangular system H y = g.
		y := make([]float64, k)
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			y[i] = s / h[i][i]
		}
		// x += M⁻¹·(V·y).
		vec.Zero(w)
		for j := 0; j < k; j++ {
			vec.Axpy(w, y[j], v[j])
		}
		if err := m.Apply(zhat, w); err != nil {
			return res, err
		}
		vec.Add(x, x, zhat)

		if relres <= tol {
			// Confirm with the true residual before declaring victory
			// (restarted GMRES's g-based estimate can drift).
			a.MulVec(w, x)
			vec.Sub(w, b, w)
			relres = vec.Norm2(w) / normB
			if relres <= tol*10 {
				res.Converged = true
				break
			}
		}
	}

	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: GMRES(%d) after %d iterations (relres %.3e)", ErrNotConverged, restart, total, relres)
	}
	return res, nil
}

// MINRES solves the symmetric (possibly indefinite) system A·x = b with the
// minimum-residual method, using the standard Lanczos + Givens recurrence.
func MINRES(a *sparse.CSR, b []float64, opts Options) (Result, error) {
	if err := checkSystem(a, b); err != nil {
		return Result{}, err
	}
	n := a.Rows
	x := make([]float64, n)
	normB := vec.Norm2(b)
	if normB <= 0 {
		normB = 1
	}
	tol := opts.tol()
	maxIter := opts.maxIter(n)

	r := make([]float64, n)
	a.MulVec(r, x)
	vec.Sub(r, b, r)

	res := Result{X: x}
	beta := vec.Norm2(r)
	relres := beta / normB
	if relres <= tol {
		res.Converged = true
		res.Residual = relres
		return res, nil
	}

	vPrev := make([]float64, n)
	v := make([]float64, n)
	vec.Scale(v, 1/beta, r)
	w0 := make([]float64, n)
	w1 := make([]float64, n)
	av := make([]float64, n)

	var cPrev, sPrev, c2, s2 float64 = 1, 0, 1, 0
	eta := beta

	for i := 0; i < maxIter; i++ {
		a.MulVec(av, v)
		alpha := vec.Dot(v, av)
		// Lanczos: av := av − alpha·v − beta·vPrev.
		vec.Axpy(av, -alpha, v)
		vec.Axpy(av, -beta, vPrev)
		betaNew := vec.Norm2(av)

		// Two previous rotations applied to the new column (alpha, beta).
		delta := c2*alpha - cPrev*s2*beta
		rho2 := s2*alpha + cPrev*c2*beta
		rho3 := sPrev * beta
		// New rotation.
		rho1 := math.Hypot(delta, betaNew)
		if rho1 <= 0 {
			return res, fmt.Errorf("solver: MINRES breakdown at iteration %d", i)
		}
		c := delta / rho1
		s := betaNew / rho1

		// Update direction w = (v − rho2·w1 − rho3·w0)/rho1 and solution.
		wNew := make([]float64, n)
		copy(wNew, v)
		vec.Axpy(wNew, -rho2, w1)
		vec.Axpy(wNew, -rho3, w0)
		vec.Scale(wNew, 1/rho1, wNew)
		vec.Axpy(x, c*eta, wNew)
		eta = -s * eta

		copy(w0, w1)
		copy(w1, wNew)
		copy(vPrev, v)
		if betaNew > 0 {
			vec.Scale(v, 1/betaNew, av)
		}
		cPrev, sPrev = c2, s2
		c2, s2 = c, s
		beta = betaNew

		res.Iterations = i + 1
		relres = math.Abs(eta) / normB
		if relres <= tol {
			res.Converged = true
			break
		}
	}

	res.Residual = relres
	if !res.Converged {
		return res, fmt.Errorf("%w: MINRES after %d iterations (relres %.3e)", ErrNotConverged, res.Iterations, relres)
	}
	return res, nil
}
