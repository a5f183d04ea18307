package core

import (
	"math"
	"testing"

	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// TestSolveBitwiseAcrossWorkers is the end-to-end determinism check for
// the kernel wiring: a solve with a worker pool must reproduce
// the serial solve bit for bit — same iterates, same iteration count,
// same detection statistics — at any worker count. This is what makes a
// parallel ABFT solve's checksum comparisons reproducible (and what lets
// the golden trace tests stay valid with a pool attached).
func TestSolveBitwiseAcrossWorkers(t *testing.T) {
	a := sparse.Laplacian3D(17, 17, 17) // n = 4913 > kernel's serial cutover: reductions go parallel too
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}

	// The control arms ride the same engine as the protected ones, so they
	// honour the pool — and owe the same bitwise contract.
	arms := []struct {
		name   string
		method Method
		scheme Scheme
	}{
		{"pcg", MethodPCG, Basic},
		{"pcg2l", MethodPCG, TwoLevel},
		{"bicgstab", MethodPBiCGSTAB, Basic},
		{"cr", MethodCR, Basic},
		{"pcg-unprotected", MethodPCG, Unprotected},
		{"pcg-ortho", MethodPCG, Orthogonality},
		{"bicgstab-unprotected", MethodPBiCGSTAB, Unprotected},
	}

	for _, arm := range arms {
		name := arm.name
		var base Result
		for run, workers := range []int{1, 1, 2, 4} { // repeat serial once: run-to-run stability
			opts := Options{}
			opts.Tol = 1e-10
			opts.MaxIter = 2000
			p := kernel.NewPool(workers)
			opts.Pool = p
			res, err := Solve(arm.method, arm.scheme, a, m, b, opts)
			p.Close()
			if err != nil {
				t.Fatalf("%s workers=%d: %v", name, workers, err)
			}
			if run == 0 {
				base = res
				continue
			}
			if res.Iterations != base.Iterations {
				t.Fatalf("%s workers=%d: %d iterations, serial %d", name, workers, res.Iterations, base.Iterations)
			}
			if res.Stats != base.Stats {
				t.Fatalf("%s workers=%d: stats %+v, serial %+v", name, workers, res.Stats, base.Stats)
			}
			if math.Float64bits(res.Residual) != math.Float64bits(base.Residual) {
				t.Fatalf("%s workers=%d: residual %x, serial %x", name, workers, res.Residual, base.Residual)
			}
			for i := range res.X {
				if math.Float64bits(res.X[i]) != math.Float64bits(base.X[i]) {
					t.Fatalf("%s workers=%d: x[%d] = %x, serial %x", name, workers, i, res.X[i], base.X[i])
				}
			}
		}
	}
}
