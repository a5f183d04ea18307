package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestCopy(t *testing.T) {
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	Copy(dst, src)
	if !Equal(dst, src, 0) {
		t.Fatalf("Copy: got %v", dst)
	}
}

func TestCopyPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Copy(make([]float64, 2), make([]float64, 3))
}

func TestZeroFill(t *testing.T) {
	x := []float64{1, 2, 3}
	Zero(x)
	for _, v := range x {
		if v != 0 {
			t.Fatalf("Zero left %v", x)
		}
	}
	Fill(x, 7)
	for _, v := range x {
		if v != 7 {
			t.Fatalf("Fill left %v", x)
		}
	}
}

func TestScaleAliasing(t *testing.T) {
	x := []float64{1, -2, 3}
	Scale(x, 2, x)
	if !Equal(x, []float64{2, -4, 6}, 0) {
		t.Fatalf("in-place Scale: %v", x)
	}
}

func TestAddSub(t *testing.T) {
	u := []float64{1, 2, 3}
	v := []float64{4, 5, 6}
	w := make([]float64, 3)
	Add(w, u, v)
	if !Equal(w, []float64{5, 7, 9}, 0) {
		t.Fatalf("Add: %v", w)
	}
	Sub(w, v, u)
	if !Equal(w, []float64{3, 3, 3}, 0) {
		t.Fatalf("Sub: %v", w)
	}
}

func TestAxpyAxpbyXpby(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(y, 2, []float64{1, 2, 3})
	if !Equal(y, []float64{3, 5, 7}, 0) {
		t.Fatalf("Axpy: %v", y)
	}
	w := make([]float64, 3)
	Axpby(w, 2, []float64{1, 0, 0}, -1, []float64{0, 1, 0})
	if !Equal(w, []float64{2, -1, 0}, 0) {
		t.Fatalf("Axpby: %v", w)
	}
	Xpby(w, []float64{1, 1, 1}, 3, []float64{1, 2, 3})
	if !Equal(w, []float64{4, 7, 10}, 0) {
		t.Fatalf("Xpby: %v", w)
	}
}

func TestDotSumWeightedSum(t *testing.T) {
	u := []float64{1, 2, 3}
	if got := Dot(u, u); got != 14 {
		t.Fatalf("Dot: %v", got)
	}
	if got := Sum(u); got != 6 {
		t.Fatalf("Sum: %v", got)
	}
	got := WeightedSum(u, func(i int) float64 { return float64(i + 1) })
	if got != 1+4+9 {
		t.Fatalf("WeightedSum: %v", got)
	}
}

func TestNorms(t *testing.T) {
	u := []float64{3, -4}
	if got := Norm2(u); !almostEqual(got, 5, 1e-15) {
		t.Fatalf("Norm2: %v", got)
	}
	if got := Norm2(nil); got != 0 {
		t.Fatalf("Norm2(nil): %v", got)
	}
}

func TestNorm2Overflow(t *testing.T) {
	// Naive sum-of-squares would overflow; the scaled algorithm must not.
	u := []float64{1e200, 1e200}
	got := Norm2(u)
	want := 1e200 * math.Sqrt2
	if math.IsInf(got, 1) || !almostEqual(got, want, 1e-14) {
		t.Fatalf("Norm2 overflow: got %v, want %v", got, want)
	}
}

func TestEqual(t *testing.T) {
	if Equal([]float64{1}, []float64{1, 2}, 1) {
		t.Fatalf("Equal accepted different lengths")
	}
	if !Equal([]float64{1, 2}, []float64{1.0000001, 2}, 1e-3) {
		t.Fatalf("Equal rejected within tolerance")
	}
	if Equal([]float64{1, 2}, []float64{1.1, 2}, 1e-3) {
		t.Fatalf("Equal accepted outside tolerance")
	}
}

// Property: Axpby is linear — the checksum-update algebra of Eq. (3)
// depends on exactly this.
func TestAxpbyLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(n uint8) bool {
		m := int(n%32) + 1
		x := make([]float64, m)
		y := make([]float64, m)
		for i := range x {
			x[i] = rng.NormFloat64()
			y[i] = rng.NormFloat64()
		}
		alpha, beta := rng.NormFloat64(), rng.NormFloat64()
		w := make([]float64, m)
		Axpby(w, alpha, x, beta, y)
		// Sum(w) must equal alpha*Sum(x) + beta*Sum(y) up to round-off.
		return almostEqual(Sum(w), alpha*Sum(x)+beta*Sum(y), 1e-12*float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and Norm2(u)² = Dot(u, u).
func TestDotNormProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	f := func(n uint8) bool {
		m := int(n%64) + 1
		u := make([]float64, m)
		v := make([]float64, m)
		for i := range u {
			u[i] = rng.NormFloat64()
			v[i] = rng.NormFloat64()
		}
		if !almostEqual(Dot(u, v), Dot(v, u), 1e-13) {
			return false
		}
		nrm := Norm2(u)
		return almostEqual(nrm*nrm, Dot(u, u), 1e-12*float64(m))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAxpy(b *testing.B) {
	x := make([]float64, 100000)
	y := make([]float64, 100000)
	for i := range x {
		x[i] = float64(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Axpy(y, 0.5, x)
	}
}

func BenchmarkDot(b *testing.B) {
	x := make([]float64, 100000)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var s float64
	for i := 0; i < b.N; i++ {
		s += Dot(x, x)
	}
	_ = s
}
