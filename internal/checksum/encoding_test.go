package checksum

import (
	"math"
	"slices"
	"testing"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// TestEncodingBitForBit is the cache-reuse contract: an Encoding derived
// once and reused must be bit-for-bit identical to the rows a solve would
// have computed freshly. Any divergence — even one ULP — would make cached
// and fresh solves follow different verification arithmetic.
func TestEncodingBitForBit(t *testing.T) {
	a := sparse.CircuitLike(400, 7)
	enc := NewEncoding(a, 0)
	d := PracticalD(a)
	if math.Float64bits(enc.D) != math.Float64bits(d) {
		t.Fatalf("Encoding pinned d=%g, fresh derivation gives %g", enc.D, d)
	}

	for _, ws := range [][]Weight{Single, Double, Triple} {
		fresh := EncodeMatrix(a, ws, d)
		cached := enc.Matrix(ws)
		if len(cached.Rows) != len(fresh.Rows) {
			t.Fatalf("weight set size %d: cached %d rows, fresh %d", len(ws), len(cached.Rows), len(fresh.Rows))
		}
		for k := range fresh.Rows {
			for i := range fresh.Rows[k] {
				if math.Float64bits(cached.Rows[k][i]) != math.Float64bits(fresh.Rows[k][i]) {
					t.Fatalf("weight %s row element %d: cached %x fresh %x",
						ws[k].Name, i,
						math.Float64bits(cached.Rows[k][i]), math.Float64bits(fresh.Rows[k][i]))
				}
			}
		}
	}

	freshDiag := EncodeTraditional(a, []Weight{Linear, Harmonic})
	for k := range freshDiag.Rows {
		for i := range freshDiag.Rows[k] {
			if math.Float64bits(enc.Diag().Rows[k][i]) != math.Float64bits(freshDiag.Rows[k][i]) {
				t.Fatalf("diag row %d element %d differs from fresh derivation", k, i)
			}
		}
	}
}

// TestEncodingOnePassIsThePerWeightPasses: NewEncoding accumulates its
// three rows side by side in one sweep of the nonzeros; on an unsymmetric
// operator, a random SPD one and with a caller's d, every row is still the
// one EncodeMatrix or EncodeTraditional accumulates alone.
func TestEncodingOnePassIsThePerWeightPasses(t *testing.T) {
	for name, a := range map[string]*sparse.CSR{
		"convdiff": sparse.ConvectionDiffusion2D(13, 11, 40),
		"spd":      sparse.SPDRandom(300, 4, 5),
		"tridiag":  sparse.Tridiag(1, -1, 2, -1),
	} {
		for _, d := range []float64{0, 1024} {
			enc := NewEncoding(a, d)
			mat := EncodeMatrix(a, Triple, enc.D)
			diag := EncodeTraditional(a, []Weight{Linear, Harmonic})
			if !slices.EqualFunc(enc.mat.Rows, mat.Rows, vec.SameBits) || !slices.EqualFunc(enc.diag.Rows, diag.Rows, vec.SameBits) {
				t.Fatalf("%s d=%g: one-pass rows differ from the per-weight passes", name, d)
			}
			for k, w := range diag.Weights {
				if enc.Diag().Weights[k].Name != w.Name {
					t.Fatalf("%s: diagnosis weight %d is %s, want %s", name, k, enc.Diag().Weights[k].Name, w.Name)
				}
			}
		}
	}
}

// atEncoding is NewEncoding as it was written before its weights were
// inlined: every weight through its At function, per row and per column.
func atEncoding(a *sparse.CSR, d float64) [][]float64 {
	rows := make([][]float64, len(Triple))
	for k := range rows {
		rows[k] = make([]float64, a.Rows)
	}
	for i := 0; i < a.Rows; i++ {
		c0, c1, c2 := Triple[0].At(i), Triple[1].At(i), Triple[2].At(i)
		cols, vals := a.RowView(i)
		for t, j := range cols {
			rows[0][j] += c0 * vals[t]
			rows[1][j] += c1 * vals[t]
			rows[2][j] += c2 * vals[t]
		}
	}
	diag := [][]float64{append([]float64(nil), rows[1]...), append([]float64(nil), rows[2]...)}
	for k, w := range Triple {
		for j := range rows[k] {
			rows[k][j] -= d * w.At(j)
		}
	}
	return append(rows, diag...)
}

// TestEncodingInlineWeightsAreAt: the inlined weights give the rows that
// calling Weight.At gives, bit for bit, on every generator's operator and
// on an inline COO one with signed zeros, a subnormal and a huge entry.
func TestEncodingInlineWeightsAreAt(t *testing.T) {
	coo := sparse.NewCOO(5, 5)
	for i := 0; i < 5; i++ {
		coo.Add(i, i, 4)
	}
	coo.Add(0, 3, math.Copysign(0, -1))
	coo.Add(1, 0, -1.5)
	coo.Add(2, 4, 5e-324)
	coo.Add(3, 1, 1e300)
	coo.Add(4, 2, -0.1)
	for name, a := range map[string]*sparse.CSR{
		"laplace2d": sparse.Laplacian2D(9, 7),
		"laplace3d": sparse.Laplacian3D(4, 3, 5),
		"convdiff":  sparse.ConvectionDiffusion2D(13, 11, 40),
		"circuit":   sparse.CircuitLike(400, 7),
		"diagdom":   sparse.DiagDominant(300, 6, 3),
		"spd":       sparse.SPDRandom(300, 4, 5),
		"tridiag":   sparse.Tridiag(50, -1, 2, -1),
		"inline":    coo.ToCSR(),
	} {
		for _, d := range []float64{0, 3, 1024} {
			enc := NewEncoding(a, d)
			want := atEncoding(a, enc.D)
			if got := append(append([][]float64(nil), enc.mat.Rows...), enc.diag.Rows...); !slices.EqualFunc(got, want, vec.SameBits) {
				t.Fatalf("%s d=%g: inlined weights differ from Weight.At", name, d)
			}
		}
	}
}

// TestEncodingDeterministic asserts two independent derivations agree via
// EqualBits — the admission check the service cache runs before trusting a
// stored encoding.
func TestEncodingDeterministic(t *testing.T) {
	a := sparse.Laplacian2D(17, 19)
	e1 := NewEncoding(a, 0)
	e2 := NewEncoding(a, 0)
	if !e1.EqualBits(e2) {
		t.Fatal("two derivations of the same operator are not bit-for-bit identical")
	}
	if e1.EqualBits(nil) {
		t.Fatal("EqualBits(nil) must be false")
	}
	// A single flipped mantissa bit in one row must be caught.
	e2.mat.Rows[1][5] = math.Float64frombits(math.Float64bits(e2.mat.Rows[1][5]) ^ 1)
	if e1.EqualBits(e2) {
		t.Fatal("EqualBits missed a one-ULP corruption in a checksum row")
	}
	// Corruption confined to the diagnosis rows must also be caught.
	e3 := NewEncoding(a, 0)
	e3.diag.Rows[0][3] = math.Float64frombits(math.Float64bits(e3.diag.Rows[0][3]) ^ 1)
	if e1.EqualBits(e3) {
		t.Fatal("EqualBits missed a corruption in the diagnosis rows")
	}
	// Different decoupling scalars are different encodings.
	if e1.EqualBits(NewEncoding(a, 16*e1.D)) {
		t.Fatal("EqualBits conflated encodings with different d")
	}
}

// TestRederivesRefusesAFlippedBit: the admission check refuses an encoding
// with one bit of D, of any new-sum row or of any diagnosis row flipped,
// admits the untouched one, and answers as EqualBits against a fresh
// NewEncoding(a, 0) does — on a grid, a circuit and an inline operator with
// signed zeros and a subnormal, and for an encoding pinned to another d.
func TestRederivesRefusesAFlippedBit(t *testing.T) {
	coo := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		coo.Add(i, i, 3)
	}
	coo.Add(0, 2, math.Copysign(0, -1))
	coo.Add(3, 1, 5e-324)
	coo.Add(2, 0, -0.75)
	flip := func(x *float64, bit uint) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1<<bit) }
	for name, a := range map[string]*sparse.CSR{
		"laplace2d": sparse.Laplacian2D(17, 19),
		"circuit":   sparse.CircuitLike(400, 7),
		"inline":    coo.ToCSR(),
	} {
		for _, c := range []struct {
			what   string
			strike func(e *Encoding)
			admit  bool
		}{
			{"untouched", func(*Encoding) {}, true},
			{"D", func(e *Encoding) { flip(&e.D, 0) }, false},
			{"ones row", func(e *Encoding) { flip(&e.mat.Rows[0][2], 0) }, false},
			{"linear row", func(e *Encoding) { flip(&e.mat.Rows[1][a.Rows-1], 51) }, false},
			{"harmonic row", func(e *Encoding) { flip(&e.mat.Rows[2][1], 63) }, false},
			{"linear diagnosis row", func(e *Encoding) { flip(&e.diag.Rows[0][0], 0) }, false},
			{"harmonic diagnosis row", func(e *Encoding) { flip(&e.diag.Rows[1][a.Rows/2], 30) }, false},
		} {
			e := NewEncoding(a, 0)
			c.strike(e)
			got := e.Rederives(a)
			if got != c.admit {
				t.Errorf("%s, %s: Rederives = %v, want %v", name, c.what, got, c.admit)
			}
			if want := e.EqualBits(NewEncoding(a, 0)); got != want {
				t.Errorf("%s, %s: Rederives = %v, EqualBits(NewEncoding(a, 0)) = %v", name, c.what, got, want)
			}
		}
		if NewEncoding(a, 1024).Rederives(a) {
			t.Errorf("%s: an encoding pinned to d = 1024 was admitted against PracticalD", name)
		}
	}
	if NewEncoding(sparse.Laplacian2D(4, 4), 0).Rederives(sparse.Laplacian2D(4, 5)) {
		t.Error("an encoding of order 16 was admitted for an operator of order 20")
	}
}

// TestEncodingMatrixValidatesWeights pins the prefix contract: only weight
// sets that are a prefix of Triple can view the precomputed rows.
func TestEncodingMatrixValidatesWeights(t *testing.T) {
	enc := NewEncoding(sparse.Laplacian2D(5, 5), 0)
	for _, bad := range [][]Weight{nil, {}, {Linear}, {Ones, Harmonic}, {Ones, Linear, Harmonic, Ones}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("weight set %v: expected panic", bad)
				}
			}()
			enc.Matrix(bad)
		}()
	}
}
