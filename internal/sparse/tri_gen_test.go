package sparse

import (
	"math"
	"math/rand"
	"testing"
)

func TestSolveLowerUpper(t *testing.T) {
	// L = [[2,0],[1,3]], U = Lᵀ.
	lc := NewCOO(2, 2)
	lc.Add(0, 0, 2)
	lc.Add(1, 0, 1)
	lc.Add(1, 1, 3)
	l := lc.ToCSR()

	x := make([]float64, 2)
	if err := l.SolveLower(x, []float64{4, 11}, false); err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-2) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("SolveLower: %v", x)
	}

	u := l.Transpose()
	if err := u.SolveUpper(x, []float64{7, 9}); err != nil {
		t.Fatal(err)
	}
	// U = [[2,1],[0,3]]: x1 = 3, x0 = (7-3)/2 = 2.
	if math.Abs(x[0]-2) > 1e-14 || math.Abs(x[1]-3) > 1e-14 {
		t.Fatalf("SolveUpper: %v", x)
	}
}

func TestSolveLowerUnitDiag(t *testing.T) {
	lc := NewCOO(2, 2)
	lc.Add(1, 0, 5)
	lc.Add(0, 0, 1) // stored diagonal should be ignored with unitDiag
	lc.Add(1, 1, 9)
	l := lc.ToCSR()
	x := make([]float64, 2)
	if err := l.SolveLower(x, []float64{1, 7}, true); err != nil {
		t.Fatal(err)
	}
	if x[0] != 1 || x[1] != 2 {
		t.Fatalf("unit-diag SolveLower: %v", x)
	}
}

func TestSolveInPlaceAliasing(t *testing.T) {
	l, _ := Tridiag(5, -1, 2, 0).BlockTriangles(0, 5, 1)
	b := []float64{1, 2, 3, 4, 5}
	want := make([]float64, 5)
	if err := l.SolveLower(want, b, false); err != nil {
		t.Fatal(err)
	}
	x := append([]float64(nil), b...)
	if err := l.SolveLower(x, x, false); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != want[i] {
			t.Fatalf("aliased solve differs at %d: %v vs %v", i, x[i], want[i])
		}
	}
}

func TestSolveZeroDiagonalError(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 0, 1) // no (1,1) entry
	l := c.ToCSR()
	x := make([]float64, 2)
	if err := l.SolveLower(x, []float64{1, 1}, false); err == nil {
		t.Fatalf("expected zero-diagonal error")
	}
	if err := l.SolveUpper(x, []float64{1, 1}); err == nil {
		t.Fatalf("expected zero-diagonal error in upper solve")
	}
}

func TestTriangleSplit(t *testing.T) {
	a := Laplacian2D(3, 3)
	lo, up := a.BlockTriangles(0, a.Rows, 1)
	// Every entry must appear in exactly one triangle (diagonal in both).
	if lo.NNZ()+up.NNZ() != a.NNZ()+a.Rows {
		t.Fatalf("triangles: %d + %d vs %d + %d", lo.NNZ(), up.NNZ(), a.NNZ(), a.Rows)
	}
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			want := a.At(i, j)
			got := 0.0
			if j <= i {
				got += lo.At(i, j)
			}
			if j >= i {
				got += up.At(i, j)
			}
			if j == i {
				got /= 2 // diagonal counted twice
			}
			if got != want {
				t.Fatalf("(%d,%d): got %v want %v", i, j, got, want)
			}
		}
	}
}

// TestBlockTrianglesShifted: the pair cut from a principal block, numbered
// from its first row, holds that block's entries — a par rank's rows.
func TestBlockTrianglesShifted(t *testing.T) {
	a := Laplacian2D(4, 4)
	l, u := a.BlockTriangles(4, 12, 1)
	if l.Rows != 8 || l.Cols != 8 || u.Rows != 8 || u.Cols != 8 {
		t.Fatalf("BlockTriangles dims: %dx%d, %dx%d", l.Rows, l.Cols, u.Rows, u.Cols)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			got := l.At(i, j)
			if j > i {
				got = u.At(i, j)
			}
			if got != a.At(i+4, j+4) {
				t.Fatalf("BlockTriangles (%d,%d) mismatch", i, j)
			}
		}
	}
}

func TestLaplacianProperties(t *testing.T) {
	a := Laplacian2D(5, 7)
	if a.Rows != 35 {
		t.Fatalf("order: %d", a.Rows)
	}
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(0) {
		t.Fatalf("not symmetric")
	}
	a3 := Laplacian3D(3, 4, 5)
	if a3.Rows != 60 || !a3.IsSymmetric(0) {
		t.Fatalf("3D Laplacian broken")
	}
	// Interior row sums are zero, boundary rows positive: weak diagonal
	// dominance.
	if !a.IsDiagonallyDominant() {
		t.Fatalf("Laplacian should be (weakly) diagonally dominant")
	}
}

func TestCircuitLikeProperties(t *testing.T) {
	a := CircuitLike(2500, 42)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if a.Rows != 2500 {
		t.Fatalf("order: %d", a.Rows)
	}
	if !a.IsSymmetric(1e-12) {
		t.Fatalf("circuit matrix must be symmetric")
	}
	// Weighted-Laplacian-plus-positive-shift construction ⇒ SPD; check a
	// necessary condition cheaply: positive diagonal and xᵀAx > 0 for
	// random x.
	rng := rand.New(rand.NewSource(9))
	x := make([]float64, a.Rows)
	for trial := 0; trial < 5; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		y := make([]float64, a.Rows)
		a.MulVec(y, x)
		var q float64
		for i := range x {
			q += x[i] * y[i]
		}
		if q <= 0 {
			t.Fatalf("xᵀAx = %v <= 0; not positive definite", q)
		}
	}
	// Density in the G3_circuit ballpark (4.83 nnz/row).
	if c0 := a.Sparsity(); c0 < 3 || c0 > 7 {
		t.Fatalf("sparsity %v out of circuit-like range", c0)
	}
	// Determinism.
	b := CircuitLike(2500, 42)
	if b.NNZ() != a.NNZ() || b.At(0, 0) != a.At(0, 0) {
		t.Fatalf("CircuitLike not deterministic for fixed seed")
	}
}

func TestConvectionDiffusionUpwind(t *testing.T) {
	a := ConvectionDiffusion2D(10, 10, 20)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	// Upwinding keeps rows diagonally dominant, guaranteeing solvability.
	if !a.IsDiagonallyDominant() {
		t.Fatalf("upwind discretization should be diagonally dominant")
	}
}

func TestSPDRandomAndTridiag(t *testing.T) {
	a := SPDRandom(100, 3, 7)
	if err := a.Validate(); err != nil {
		t.Fatal(err)
	}
	if !a.IsSymmetric(1e-12) {
		t.Fatalf("SPDRandom not symmetric")
	}
	tri := Tridiag(5, -1, 2, -1)
	if tri.NNZ() != 13 {
		t.Fatalf("Tridiag nnz: %d", tri.NNZ())
	}
	id := Identity(4)
	x := []float64{1, 2, 3, 4}
	y := make([]float64, 4)
	id.MulVec(y, x)
	for i := range x {
		if y[i] != x[i] {
			t.Fatalf("identity MulVec: %v", y)
		}
	}
}

func BenchmarkSpMVCircuit(b *testing.B) {
	a := CircuitLike(40000, 1)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 17)
	}
	y := make([]float64, a.Rows)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(y, x)
	}
}

func BenchmarkTransposeCircuit(b *testing.B) {
	a := CircuitLike(40000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = a.Transpose()
	}
}
