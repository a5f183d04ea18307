package sparse

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// randomCSR builds a random matrix through the COO path for property tests.
func randomCSR(rng *rand.Rand, rows, cols, nnz int) *CSR {
	c := NewCOO(rows, cols)
	for k := 0; k < nnz; k++ {
		c.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	return c.ToCSR()
}

func denseMulVec(d [][]float64, x []float64) []float64 {
	y := make([]float64, len(d))
	for i, row := range d {
		for j, v := range row {
			y[i] += v * x[j]
		}
	}
	return y
}

func TestCOOToCSRSumsDuplicates(t *testing.T) {
	c := NewCOO(2, 2)
	c.Add(0, 1, 1.5)
	c.Add(0, 1, 2.5)
	c.Add(1, 0, -1)
	a := c.ToCSR()
	if err := a.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := a.At(0, 1); got != 4 {
		t.Fatalf("duplicate sum: got %v", got)
	}
	if a.NNZ() != 2 {
		t.Fatalf("nnz: got %d", a.NNZ())
	}
}

func TestCOOAddSym(t *testing.T) {
	c := NewCOO(3, 3)
	c.AddSym(0, 1, 2)
	c.AddSym(2, 2, 5)
	a := c.ToCSR()
	if a.At(0, 1) != 2 || a.At(1, 0) != 2 {
		t.Fatalf("AddSym off-diagonal not mirrored")
	}
	if a.At(2, 2) != 5 {
		t.Fatalf("AddSym diagonal duplicated")
	}
}

func TestCOOOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	NewCOO(2, 2).Add(2, 0, 1)
}

func TestValidateCatchesCorruption(t *testing.T) {
	a := Laplacian2D(3, 3)
	if err := a.Validate(); err != nil {
		t.Fatalf("healthy matrix: %v", err)
	}
	bad := a.Clone()
	bad.ColIdx[0] = 99
	if err := bad.Validate(); err == nil {
		t.Fatalf("out-of-range column not caught")
	}
	bad2 := a.Clone()
	bad2.RowPtr[1] = bad2.RowPtr[2] + 1
	if err := bad2.Validate(); err == nil {
		t.Fatalf("non-monotone RowPtr not caught")
	}
}

func TestAtAndDense(t *testing.T) {
	a := Tridiag(4, -1, 2, -1)
	d := a.Dense()
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			if a.At(i, j) != d[i][j] {
				t.Fatalf("At(%d,%d)=%v, dense %v", i, j, a.At(i, j), d[i][j])
			}
		}
	}
}

func TestMulVecAgainstDense(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randomCSR(rng, 17, 13, 60)
	x := make([]float64, 13)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]float64, 17)
	a.MulVec(y, x)
	want := denseMulVec(a.Dense(), x)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-12 {
			t.Fatalf("MulVec[%d]=%v, want %v", i, y[i], want[i])
		}
	}
}

func TestMulVecRangeAndStride(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := randomCSR(rng, 20, 20, 80)
	x := make([]float64, 20)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := make([]float64, 20)
	a.MulVec(want, x)

	got := make([]float64, 20)
	a.MulVecRange(got, x, 0, 7)
	a.MulVecRange(got, x, 7, 20)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("MulVecRange[%d]=%v, want %v", i, got[i], want[i])
		}
	}

	got2 := make([]float64, 20)
	a.MulVecStride(got2, x, 0, 2)
	a.MulVecStride(got2, x, 1, 2)
	for i := range got2 {
		if got2[i] != want[i] {
			t.Fatalf("MulVecStride[%d]=%v, want %v", i, got2[i], want[i])
		}
	}
}

// Property: transposing twice is the identity.
func TestTransposeInvolutionProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randomCSR(r, 5+r.Intn(20), 5+r.Intn(20), 40)
		tt := a.Transpose().Transpose()
		if tt.Rows != a.Rows || tt.Cols != a.Cols || tt.NNZ() != a.NNZ() {
			return false
		}
		for i := 0; i < a.Rows; i++ {
			ca, va := a.RowView(i)
			cb, vb := tt.RowView(i)
			if len(ca) != len(cb) {
				return false
			}
			for k := range ca {
				if ca[k] != cb[k] || va[k] != vb[k] {
					return false
				}
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestDiag(t *testing.T) {
	a := Laplacian2D(3, 3)
	d := a.Diag(nil)
	for i, v := range d {
		if v != 4 {
			t.Fatalf("diag[%d]=%v, want 4", i, v)
		}
	}
}

func TestNormInf(t *testing.T) {
	a := Tridiag(5, -1, 2, -1)
	if got := a.NormInf(); got != 4 {
		t.Fatalf("NormInf: %v", got)
	}
}

func TestSymmetryChecks(t *testing.T) {
	if !Laplacian2D(4, 4).IsSymmetric(0) {
		t.Fatalf("Laplacian should be symmetric")
	}
	if ConvectionDiffusion2D(4, 4, 10).IsSymmetric(1e-14) {
		t.Fatalf("convection-diffusion should be unsymmetric")
	}
	if !DiagDominant(50, 4, 1).IsDiagonallyDominant() {
		t.Fatalf("DiagDominant generator not diagonally dominant")
	}
}

func TestScaleAndClone(t *testing.T) {
	a := Tridiag(3, -1, 2, -1)
	b := a.Clone()
	for i := range b.Val {
		b.Val[i] *= 2
	}
	if a.At(0, 0) != 2 || b.At(0, 0) != 4 {
		t.Fatalf("scaling the clone's values reached the original or missed the clone")
	}
}

func TestSparsity(t *testing.T) {
	a := Identity(10)
	if got := a.Sparsity(); got != 1 {
		t.Fatalf("identity sparsity: %v", got)
	}
}

func TestRowView(t *testing.T) {
	a := Tridiag(3, -1, 2, -1)
	cols, vals := a.RowView(1)
	if len(cols) != 3 || cols[0] != 0 || cols[1] != 1 || cols[2] != 2 {
		t.Fatalf("RowView cols: %v", cols)
	}
	if vals[1] != 2 {
		t.Fatalf("RowView vals: %v", vals)
	}
}

func TestGershgorinBounds(t *testing.T) {
	// Tridiag(-1,2,-1) eigenvalues lie in (0, 4); Gershgorin gives [0, 4].
	a := Tridiag(10, -1, 2, -1)
	lo, hi := a.GershgorinBounds()
	if lo != 0 || hi != 4 {
		t.Fatalf("Gershgorin: [%v, %v], want [0, 4]", lo, hi)
	}
	// Identity: both bounds 1.
	lo, hi = Identity(5).GershgorinBounds()
	if lo != 1 || hi != 1 {
		t.Fatalf("identity bounds: [%v, %v]", lo, hi)
	}
	// Bounds must truly enclose xᵀAx/xᵀx for random x (Rayleigh quotients).
	b := Laplacian2D(6, 6)
	blo, bhi := b.GershgorinBounds()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		x := make([]float64, b.Rows)
		var xx float64
		for i := range x {
			x[i] = rng.NormFloat64()
			xx += x[i] * x[i]
		}
		y := make([]float64, b.Rows)
		b.MulVec(y, x)
		var xay float64
		for i := range x {
			xay += x[i] * y[i]
		}
		q := xay / xx
		if q < blo-1e-9 || q > bhi+1e-9 {
			t.Fatalf("Rayleigh quotient %v outside Gershgorin [%v, %v]", q, blo, bhi)
		}
	}
}
