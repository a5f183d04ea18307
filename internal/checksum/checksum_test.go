package checksum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func TestWeightValues(t *testing.T) {
	if Ones.At(5) != 1 {
		t.Fatalf("Ones")
	}
	if Linear.At(0) != 1 || Linear.At(9) != 10 {
		t.Fatalf("Linear")
	}
	if Harmonic.At(0) != 1 || Harmonic.At(3) != 0.25 {
		t.Fatalf("Harmonic")
	}
}

func TestApplyAndChecksums(t *testing.T) {
	x := []float64{1, 2, 3}
	if got := Ones.Apply(x); got != 6 {
		t.Fatalf("Ones.Apply: %v", got)
	}
	if got := Linear.Apply(x); got != 1+4+9 {
		t.Fatalf("Linear.Apply: %v", got)
	}
	s := Checksums(x, Triple)
	if len(s) != 3 || s[0] != 6 {
		t.Fatalf("Checksums: %v", s)
	}
}

func TestLemmaDAndPracticalD(t *testing.T) {
	a := sparse.Laplacian2D(5, 5)
	p := PracticalD(a)
	if p <= 1 || p > 64 {
		t.Fatalf("PracticalD %v outside its design range (2..64]", p)
	}
	if math.Exp2(math.Round(math.Log2(p))) != p {
		t.Fatalf("PracticalD %v not a power of two", p)
	}
}

// TestLemma1MVM pins the Lemma 1 identity for MVM:
// checksum(w) − cᵀw = d·(checksum(u) − cᵀu).
func TestLemma1MVM(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := sparse.Laplacian2D(6, 6)
	const d = 64
	enc := EncodeMatrix(a, Triple, d)
	u := randVec(rng, a.Rows)
	su := Checksums(u, Triple)
	// Perturb the carried checksum to create a known input inconsistency.
	delta := []float64{0.5, -2, 1.25}
	for k := range su {
		su[k] += delta[k]
	}
	w := make([]float64, a.Rows)
	a.MulVec(w, u)
	sw := make([]float64, 3)
	updateMVM(enc, sw, u, su)
	for k, wt := range Triple {
		gap := sw[k] - wt.Apply(w)
		want := d * delta[k]
		if math.Abs(gap-want) > 1e-6*math.Abs(want) {
			t.Errorf("weight %s: gap %v, want %v", wt.Name, gap, want)
		}
	}
}

// TestLemma1PCO pins the PCO identity:
// checksum(w) − cᵀw = (checksum(u) − cᵀu)/d, using the sign-corrected
// Eq. (4) (see DESIGN.md §2).
func TestLemma1PCO(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	// Use a well-conditioned SPD "preconditioner" M and solve M w = u.
	m := sparse.Tridiag(30, -1, 4, -1)
	const d = 128
	enc := EncodeMatrix(m, Triple, d)
	w := randVec(rng, 30)
	u := make([]float64, 30)
	m.MulVec(u, w) // so that w = M⁻¹u exactly up to round-off
	su := Checksums(u, Triple)
	delta := []float64{3, -1, 0.5}
	for k := range su {
		su[k] += delta[k]
	}
	sw := make([]float64, 3)
	updatePCO(enc, sw, w, su)
	for k, wt := range Triple {
		gap := sw[k] - wt.Apply(w)
		want := delta[k] / d
		if math.Abs(gap-want) > 1e-9+1e-6*math.Abs(want) {
			t.Errorf("weight %s: gap %v, want %v", wt.Name, gap, want)
		}
	}
}

// TestLemma1VLO pins the VLO identities of Eq. (3).
func TestLemma1VLO(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x := randVec(rng, 40)
	y := randVec(rng, 40)
	sx := Checksums(x, Triple)
	sy := Checksums(y, Triple)
	alpha, beta := 1.7, -0.3

	z := make([]float64, 40)
	for i := range z {
		z[i] = alpha*x[i] + beta*y[i]
	}
	sz := make([]float64, 3)
	UpdateVLOAxpby(sz, alpha, sx, beta, sy)
	for k, wt := range Triple {
		if math.Abs(sz[k]-wt.Apply(z)) > 1e-10*(1+math.Abs(sz[k])) {
			t.Errorf("axpby weight %s: %v vs %v", wt.Name, sz[k], wt.Apply(z))
		}
	}

	sw := make([]float64, 3)
	UpdateVLOScale(sw, alpha, sx)
	for k := range sw {
		if sw[k] != alpha*sx[k] {
			t.Errorf("scale update wrong")
		}
	}

	syc := append([]float64(nil), sy...)
	UpdateVLOAxpy(syc, alpha, sx)
	for k := range syc {
		if math.Abs(syc[k]-(sy[k]+alpha*sx[k])) > 1e-12*(1+math.Abs(syc[k])) {
			t.Errorf("axpy update wrong")
		}
	}
}

// TestLemma2ArithmeticDetection: an error in the MVM output breaks the
// checksum relationship.
func TestLemma2ArithmeticDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a := sparse.Laplacian2D(5, 5)
	enc := EncodeMatrix(a, Single, 64)
	u := randVec(rng, a.Rows)
	su := Checksums(u, Single)
	w := make([]float64, a.Rows)
	a.MulVec(w, u)
	sw := make([]float64, 1)
	updateMVM(enc, sw, u, su)
	w[7] += 1000 // arithmetic error
	delta := Ones.Apply(w) - sw[0]
	if (Tol{}).ConsistentBound(delta, a.Rows, 1000, 0) {
		t.Fatalf("arithmetic error escaped: delta %v", delta)
	}
}

// TestLemma2MemoryDetection: a corrupted input with a stale checksum breaks
// the output relationship by d·cᵀe.
func TestLemma2MemoryDetection(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sparse.Laplacian2D(5, 5)
	const d = 64
	enc := EncodeMatrix(a, Single, d)
	u := randVec(rng, a.Rows)
	su := Checksums(u, Single) // checksum taken before the flip
	u[3] += 500                // memory bit flip after checksum capture
	w := make([]float64, a.Rows)
	a.MulVec(w, u)
	sw := make([]float64, 1)
	updateMVM(enc, sw, u, su)
	delta := Ones.Apply(w) - sw[0]
	// Expected inconsistency: −d·cᵀe = −64·500 (up to the A-column term).
	if math.Abs(delta) < 1000 {
		t.Fatalf("memory error signature too small: %v", delta)
	}
}

// TestTraditionalBlindToInputCorruption reproduces the §2 argument: the
// Huang–Abraham encoding verifies even when the MVM input is corrupted.
func TestTraditionalBlindToInputCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := sparse.Laplacian2D(5, 5)
	tr := EncodeTraditional(a, Single)
	x := randVec(rng, a.Rows)
	x[11] += 1e6 // corrupted BEFORE the operation
	y := make([]float64, a.Rows)
	a.MulVec(y, x)
	if !tr.VerifyMVM(y, x, Tol{}) {
		t.Fatalf("traditional checksum should verify (blind) with corrupted input")
	}
	// Whereas an output error IS caught.
	y[3] += 1e6
	if tr.VerifyMVM(y, x, Tol{}) {
		t.Fatalf("traditional checksum missed an output error")
	}
}

// TestNewSumDetectsInputCorruption is the contrast to the traditional
// scheme: with the new-sum separated checksums, the same input corruption
// surfaces in the output relationship.
func TestNewSumDetectsInputCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := sparse.Laplacian2D(5, 5)
	enc := EncodeMatrix(a, Single, 64)
	x := randVec(rng, a.Rows)
	sx := Checksums(x, Single)
	x[11] += 1e6
	y := make([]float64, a.Rows)
	a.MulVec(y, x)
	sy := make([]float64, 1)
	updateMVM(enc, sy, x, sx)
	delta := Ones.Apply(y) - sy[0]
	if (Tol{}).ConsistentBound(delta, a.Rows, Ones.Apply(y), 0) {
		t.Fatalf("new-sum encoding missed the input corruption")
	}
}

func TestSegmentChecksum(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := sparse.Laplacian2D(4, 4)
	x := randVec(rng, a.Rows)
	y := make([]float64, a.Rows)
	a.MulVec(y, x)
	whole := SegmentChecksum(a, Ones, x, 0, a.Rows)
	if math.Abs(whole-Ones.Apply(y)) > 1e-10 {
		t.Fatalf("segment checksum of full range: %v vs %v", whole, Ones.Apply(y))
	}
	lo := SegmentChecksum(a, Ones, x, 0, 8)
	hi := SegmentChecksum(a, Ones, x, 8, a.Rows)
	if math.Abs(lo+hi-whole) > 1e-10 {
		t.Fatalf("segments don't sum: %v + %v vs %v", lo, hi, whole)
	}
}

func TestEncodePanics(t *testing.T) {
	rect := sparse.NewCOO(2, 3).ToCSR()
	for name, fn := range map[string]func(){
		"rectangular": func() { EncodeMatrix(rect, Single, 2) },
		"zero d":      func() { EncodeMatrix(sparse.Identity(2), Single, 0) },
		"no weights":  func() { EncodeMatrix(sparse.Identity(2), nil, 2) },
		"rect (trad)": func() { EncodeTraditional(rect, Single) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestMatrixString(t *testing.T) {
	enc := EncodeMatrix(sparse.Identity(3), Double, 8)
	if enc.String() == "" || len(enc.Weights) != 2 {
		t.Fatalf("descriptor broken: %q", enc.String())
	}
}

// Property: the MVM update commutes with vector addition — checksums form a
// linear code, the algebra the whole scheme rests on.
func TestUpdateLinearityProperty(t *testing.T) {
	a := sparse.Laplacian2D(4, 4)
	enc := EncodeMatrix(a, Single, 32)
	rng := rand.New(rand.NewSource(9))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		u := randVec(r, a.Rows)
		v := randVec(r, a.Rows)
		su := Checksums(u, Single)
		sv := Checksums(v, Single)
		// Update of (u+v) must equal sum of updates.
		uv := make([]float64, a.Rows)
		for i := range uv {
			uv[i] = u[i] + v[i]
		}
		suv := make([]float64, 1)
		UpdateVLOAxpby(suv, 1, su, 1, sv)
		out1 := make([]float64, 1)
		updateMVM(enc, out1, uv, suv)
		outU := make([]float64, 1)
		outV := make([]float64, 1)
		updateMVM(enc, outU, u, su)
		updateMVM(enc, outV, v, sv)
		return math.Abs(out1[0]-(outU[0]+outV[0])) < 1e-8*(1+math.Abs(out1[0]))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// TestOnesFastPathIsBitwise: Apply and ApplyAbs skip the per-element weight
// call for c1, and nothing downstream can tell — the sums are the closure
// path's, bit for bit, while a shifted or renamed weight keeps the closure.
func TestOnesFastPathIsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, n := range []int{0, 1, 127, 128, 129, 4097, 10000} {
		x := make([]float64, n)
		for i := range x {
			x[i] = (rng.Float64() - 0.5) * math.Exp2(float64(rng.Intn(40)-20))
		}
		if got, want := Ones.Apply(x), vec.WeightedSum(x, Ones.At); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d: Apply = %x, closure path %x", n, got, want)
		}
		gs, ga := Ones.ApplyAbs(x)
		ws, wa := vec.WeightedSumAbs(x, Ones.At)
		if math.Float64bits(gs) != math.Float64bits(ws) || math.Float64bits(ga) != math.Float64bits(wa) {
			t.Fatalf("n=%d: ApplyAbs = (%x, %x), closure path (%x, %x)", n, gs, ga, ws, wa)
		}
	}
	if !Ones.IsOnes() || Linear.IsOnes() || Harmonic.IsOnes() || ShiftWeight(Ones, 3).IsOnes() {
		t.Fatal("IsOnes must single out c1 itself")
	}
}

// updateMVM and updatePCO are Eq. (2) and Eq. (4) through the η-carrying
// updates, the η discarded.
func updateMVM(enc *Matrix, dst, u, su []float64) {
	enc.UpdateMVMBound(dst, make([]float64, len(dst)), u, su, make([]float64, len(su)))
}

func updatePCO(enc *Matrix, dst, w, su []float64) {
	enc.UpdatePCOBound(dst, make([]float64, len(dst)), w, su, make([]float64, len(su)))
}
