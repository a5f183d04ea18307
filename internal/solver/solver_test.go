package solver

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// system builds A, b with a known solution for residual ground truth.
func system(a *sparse.CSR, seed int64) (b, xTrue []float64) {
	rng := rand.New(rand.NewSource(seed))
	xTrue = make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = rng.NormFloat64()
	}
	b = make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	return b, xTrue
}

func checkClose(t *testing.T, got, want []float64, tol float64) {
	t.Helper()
	for i := range got {
		if math.Abs(got[i]-want[i]) > tol*(1+math.Abs(want[i])) {
			t.Fatalf("solution differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestCGOnLaplacian(t *testing.T) {
	a := sparse.Laplacian2D(12, 12)
	b, xTrue := system(a, 1)
	res, err := PCG(a, precond.Identity(a.Rows), b, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("not converged")
	}
	checkClose(t, res.X, xTrue, 1e-7)
}

func TestPCGWithEveryPreconditioner(t *testing.T) {
	a := sparse.Laplacian2D(10, 10)
	b, xTrue := system(a, 2)
	builders := map[string]func() (precond.Preconditioner, error){
		"identity": func() (precond.Preconditioner, error) { return precond.Identity(a.Rows), nil },
		"jacobi":   func() (precond.Preconditioner, error) { return precond.Jacobi(a) },
		"ilu0":     func() (precond.Preconditioner, error) { return precond.ILU0(a) },
		"bjacobi":  func() (precond.Preconditioner, error) { return precond.BlockJacobiILU0(a, 5) },
		"ssor":     func() (precond.Preconditioner, error) { return precond.SSOR(a, 1.2) },
	}
	iters := map[string]int{}
	for name, build := range builders {
		m, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := PCG(a, m, b, Options{Tol: 1e-12})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkClose(t, res.X, xTrue, 1e-7)
		iters[name] = res.Iterations
	}
	if iters["ilu0"] >= iters["identity"] {
		t.Errorf("ILU(0) should accelerate CG: %d vs %d iterations", iters["ilu0"], iters["identity"])
	}
}

func TestPBiCGSTABOnUnsymmetric(t *testing.T) {
	a := sparse.ConvectionDiffusion2D(12, 12, 15)
	b, xTrue := system(a, 3)
	m, err := precond.ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PBiCGSTAB(a, m, b, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, res.X, xTrue, 1e-6)

	plain, err := PBiCGSTAB(a, precond.Identity(a.Rows), b, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, plain.X, xTrue, 1e-6)
}

func TestJacobiOnDiagDominant(t *testing.T) {
	a := sparse.DiagDominant(200, 4, 4)
	b, xTrue := system(a, 5)
	res, err := Jacobi(a, b, Options{Tol: 1e-12, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, res.X, xTrue, 1e-8)
}

func TestJacobiRequiresDiagonal(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	if _, err := Jacobi(c.ToCSR(), []float64{1, 1}, Options{}); err == nil {
		t.Fatalf("expected diagonal error")
	}
}

func TestChebyshevWithExactBounds(t *testing.T) {
	// 1D Laplacian eigenvalues: 2 − 2cos(kπ/(n+1)), known in closed form.
	n := 64
	a := sparse.Tridiag(n, -1, 2, -1)
	b, xTrue := system(a, 6)
	lmin := 2 - 2*math.Cos(math.Pi/float64(n+1))
	lmax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	res, err := Chebyshev(a, precond.Identity(n), b, lmin, lmax, Options{Tol: 1e-10, MaxIter: 20000})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, res.X, xTrue, 1e-5)
}

func TestChebyshevBadBounds(t *testing.T) {
	a := sparse.Tridiag(4, -1, 2, -1)
	if _, err := Chebyshev(a, precond.Identity(4), []float64{1, 1, 1, 1}, 2, 1, Options{}); err == nil {
		t.Fatalf("expected bounds error")
	}
	if _, err := Chebyshev(a, precond.Identity(4), []float64{1, 1, 1, 1}, -1, 1, Options{}); err == nil {
		t.Fatalf("expected bounds error")
	}
}

func TestCROnSymmetric(t *testing.T) {
	a := sparse.Laplacian2D(9, 9)
	b, xTrue := system(a, 7)
	res, err := CR(a, b, Options{Tol: 1e-12})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, res.X, xTrue, 1e-6)
}

func TestSteepestDescent(t *testing.T) {
	a := sparse.Tridiag(30, -1, 3, -1) // well conditioned
	b, xTrue := system(a, 8)
	res, err := SteepestDescent(a, b, Options{Tol: 1e-10, MaxIter: 100000})
	if err != nil {
		t.Fatal(err)
	}
	checkClose(t, res.X, xTrue, 1e-6)
}

func TestNotConvergedError(t *testing.T) {
	a := sparse.Laplacian2D(10, 10)
	b, _ := system(a, 9)
	_, err := PCG(a, precond.Identity(a.Rows), b, Options{Tol: 1e-14, MaxIter: 2})
	if !errors.Is(err, ErrNotConverged) {
		t.Fatalf("want ErrNotConverged, got %v", err)
	}
}

func TestDimensionErrors(t *testing.T) {
	a := sparse.Laplacian2D(4, 4)
	if _, err := PCG(a, precond.Identity(a.Rows), make([]float64, 3), Options{}); err == nil {
		t.Fatalf("rhs mismatch accepted")
	}
	rect := sparse.NewCOO(3, 4).ToCSR()
	if _, err := PCG(rect, precond.Identity(rect.Rows), make([]float64, 3), Options{}); err == nil {
		t.Fatalf("rectangular matrix accepted")
	}
}

func TestZeroRHS(t *testing.T) {
	a := sparse.Laplacian2D(5, 5)
	res, err := PCG(a, precond.Identity(a.Rows), make([]float64, a.Rows), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if vec.Norm2(res.X) != 0 {
		t.Fatalf("zero rhs should give zero solution")
	}
}

// Property: for random SPD systems, CG's solution satisfies the system.
func TestCGSolvesRandomSPDProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := sparse.SPDRandom(60, 3, seed)
		b, _ := system(a, seed+1)
		res, err := PCG(a, precond.Identity(a.Rows), b, Options{Tol: 1e-10, MaxIter: 10000})
		if err != nil {
			return false
		}
		r := make([]float64, a.Rows)
		a.MulVec(r, res.X)
		vec.Sub(r, b, r)
		return vec.Norm2(r)/math.Max(vec.Norm2(b), 1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: PBiCGSTAB solves random diagonally dominant unsymmetric systems.
func TestBiCGSTABSolvesRandomProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := sparse.DiagDominant(60, 4, seed)
		b, _ := system(a, seed+2)
		res, err := PBiCGSTAB(a, precond.Identity(a.Rows), b, Options{Tol: 1e-10, MaxIter: 10000})
		if err != nil {
			return false
		}
		r := make([]float64, a.Rows)
		a.MulVec(r, res.X)
		vec.Sub(r, b, r)
		return vec.Norm2(r)/math.Max(vec.Norm2(b), 1) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkPCGCircuit(b *testing.B) {
	a := sparse.CircuitLike(10000, 1)
	m, err := precond.BlockJacobiILU0(a, 16)
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PCG(a, m, rhs, Options{Tol: 1e-8, MaxIter: 100000}); err != nil {
			b.Fatal(err)
		}
	}
}
