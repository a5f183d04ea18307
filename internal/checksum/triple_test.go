package checksum

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"newsum/internal/sparse"
)

// makeDeltas builds the (δ1, δ2, δ3) signature of errors at the given
// zero-based positions with the given magnitudes.
func makeDeltas(pos []int, mag []float64) []float64 {
	var d1, d2, d3 float64
	for i, p := range pos {
		j := float64(p + 1)
		d1 += mag[i]
		d2 += j * mag[i]
		d3 += mag[i] / j
	}
	return []float64{d1, d2, d3}
}

func refs(n int) []float64 { return []float64{float64(n), float64(n), float64(n)} }

func TestDiagnoseNoError(t *testing.T) {
	diag := Diagnose([]float64{1e-14, 1e-13, 1e-15}, 100, refs(100), Tol{})
	if diag.Kind != NoError {
		t.Fatalf("round-off flagged as %v", diag.Kind)
	}
}

func TestDiagnoseSingleError(t *testing.T) {
	for _, pos := range []int{0, 7, 99} {
		d := makeDeltas([]int{pos}, []float64{123.5})
		diag := Diagnose(d, 100, refs(100), Tol{})
		if diag.Kind != SingleError {
			t.Fatalf("pos %d: got %v", pos, diag.Kind)
		}
		if diag.Pos != pos {
			t.Fatalf("pos %d: located %d", pos, diag.Pos)
		}
		if math.Abs(diag.Magnitude-123.5) > 1e-9 {
			t.Fatalf("pos %d: magnitude %v", pos, diag.Magnitude)
		}
	}
}

func TestDiagnoseMultipleErrors(t *testing.T) {
	d := makeDeltas([]int{3, 17}, []float64{50, -20})
	diag := Diagnose(d, 100, refs(100), Tol{})
	if diag.Kind != MultipleErrors {
		t.Fatalf("got %v", diag.Kind)
	}
}

// TestDiagnoseDefeatsFakeCorrection reproduces §5.2's scenario: equal
// magnitudes at positions averaging to an integer fool the double-checksum
// locator but not the triple.
func TestDiagnoseDefeatsFakeCorrection(t *testing.T) {
	pos, mag, ok := FakeCorrectionExample(100, 42.0)
	if !ok {
		t.Fatalf("no example")
	}
	mags := make([]float64, len(pos))
	for i := range mags {
		mags[i] = mag
	}
	d := makeDeltas(pos, mags)
	// The double-checksum locator happily "finds" the average position.
	fakePos, located := DoubleLocate(d[0], d[1], 100)
	if !located {
		t.Fatalf("double-checksum should locate (that's the hazard)")
	}
	if fakePos == pos[0] || fakePos == pos[1] {
		t.Fatalf("fake position %d coincides with a real error", fakePos)
	}
	// The triple-checksum test rejects it.
	diag := Diagnose(d, 100, refs(100), Tol{})
	if diag.Kind != MultipleErrors {
		t.Fatalf("triple checksum fell for the fake correction: %v", diag.Kind)
	}
}

func TestCorrectSingle(t *testing.T) {
	y := []float64{1, 2, 3, 4}
	want := append([]float64(nil), y...)
	y[2] += 77
	deltas := makeDeltas([]int{2}, []float64{77})
	diag := Diagnose(deltas, 4, refs(4), Tol{})
	if diag.Kind != SingleError {
		t.Fatalf("diagnosis: %v", diag.Kind)
	}
	CorrectSingle(y, diag)
	for i := range y {
		if math.Abs(y[i]-want[i]) > 1e-9 {
			t.Fatalf("correction failed: %v", y)
		}
	}
}

func TestCorrectSinglePanicsOnWrongKind(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	CorrectSingle([]float64{1}, TripleDiagnosis{Kind: MultipleErrors})
}

func TestDiagnosePanicsOnWrongArity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("expected panic")
		}
	}()
	Diagnose([]float64{1, 2}, 10, []float64{1, 2}, Tol{})
}

func TestDiagnosisString(t *testing.T) {
	for d, want := range map[Diagnosis]string{
		NoError:        "no-error",
		SingleError:    "single-error",
		MultipleErrors: "multiple-errors",
		Diagnosis(99):  "unknown-diagnosis",
	} {
		if d.String() != want {
			t.Errorf("%d: %q", d, d.String())
		}
	}
}

// Property: any single error at any position with any non-tiny magnitude is
// located and corrected exactly — the §5.2 guarantee.
func TestSingleErrorLocalizationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 4 + r.Intn(500)
		pos := r.Intn(n)
		mag := (1 + r.Float64()*1e6) * float64(1-2*r.Intn(2))
		d := makeDeltas([]int{pos}, []float64{mag})
		diag := Diagnose(d, n, refs(n), Tol{})
		return diag.Kind == SingleError && diag.Pos == pos &&
			math.Abs(diag.Magnitude-mag) < 1e-6*math.Abs(mag)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: two distinct-position errors never pass the single-error test
// (δ2·δ3 = δ1² iff all positions coincide).
func TestTwoErrorsNeverMistakenProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 10 + r.Intn(200)
		p1 := r.Intn(n)
		p2 := r.Intn(n)
		if p1 == p2 {
			return true // same position = genuinely one error; skip
		}
		m1 := 1 + r.Float64()*1e4
		m2 := 1 + r.Float64()*1e4
		if r.Intn(2) == 0 {
			m2 = -m2
		}
		if math.Abs(m1+m2) < 1e-6*(math.Abs(m1)+math.Abs(m2)) {
			return true // near-cancellation excluded by the error model
		}
		d := makeDeltas([]int{p1, p2}, []float64{m1, m2})
		diag := Diagnose(d, n, refs(n), Tol{})
		return diag.Kind == MultipleErrors
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

func TestToleranceRules(t *testing.T) {
	tol := Tol{Theta: 1e-10}
	if !tol.Consistent(1e-9, 100, 1) {
		t.Fatalf("tiny delta should pass Consistent")
	}
	if tol.Consistent(1, 100, 1) {
		t.Fatalf("big delta should fail Consistent")
	}
	if !tol.ConsistentBound(1e-9, 100, 1000, 0) {
		t.Fatalf("ConsistentBound scale handling wrong")
	}
	if tol.ConsistentBound(1, 100, 1000, 0) {
		t.Fatalf("ConsistentBound missed a unit-scale error")
	}
	// The η bound path: a delta inside BoundSafety·η is round-off even if
	// above θ·scale.
	if !tol.ConsistentBound(1e-3, 100, 1, 1e-4) {
		t.Fatalf("ConsistentBound ignored eta")
	}
	if tol.ConsistentBound(1, 100, 1, 1e-4) {
		t.Fatalf("ConsistentBound passed a real error")
	}
	// Zero-theta default.
	if (Tol{}).theta() != DefaultTheta {
		t.Fatalf("default theta")
	}
	if !DefaultTol().Consistent(0, 10, 0) {
		t.Fatalf("zero delta inconsistent?")
	}
	// With η = 0 the bound rule is the θ rule: |δ| ≤ θ·max(n, a), NaN in δ
	// or a failing it.
	inf, nan := math.Inf(1), math.NaN()
	for _, d := range []float64{0, 1e-12, -1e-9, 1e-7, 1, -inf, inf, nan} {
		for _, n := range []int{0, 1, 100} {
			for _, a := range []float64{0, 1, 1000, 1e12, -inf, inf, nan} {
				got := tol.ConsistentBound(d, n, a, 0)
				if want := math.Abs(d) <= tol.Theta*math.Max(float64(n), a); got != want {
					t.Errorf("ConsistentBound(%g, %d, %g, 0) = %v, want %v", d, n, a, got, want)
				}
			}
		}
	}
}

// TestTriage walks the forward-repair triage through each outcome, and pins
// the amplified-drift screen against a NaN or infinite δ: the bound
// comparison fails for both, so a vector is never re-anchored over an
// overflowed burst. The drift rows run with no η (par's form) and with an
// η that sets the bound (core's form).
func TestTriage(t *testing.T) {
	const n = 64
	abs := [3]float64{1, 1, 1}
	var noEta [3]float64
	single := [3]float64{1, 10, 0.1} // a unit error at 1-based position 10
	for _, c := range []struct {
		name   string
		deltas [3]float64
		etas   [3]float64
		want   Outcome
	}{
		{"zero", [3]float64{}, noEta, Clean},
		{"one broken", [3]float64{0, 1, 0}, noEta, Reanchored},
		{"drift", [3]float64{1e-8, 1e-8, 1e-8}, noEta, Reanchored},
		{"drift within η", [3]float64{1e-5, 2e-5, 1e-5}, [3]float64{1e-9, 1e-9, 1e-9}, Reanchored},
		{"past drift", [3]float64{1e-5, 2e-5, 1e-5}, noEta, Failed},
		{"single error", single, noEta, Corrected},
		{"two errors", [3]float64{2, 8, 0.5 + 1.0/6}, noEta, Failed},
	} {
		out, diag := Triage(c.deltas, abs, c.etas, n, Tol{})
		if out != c.want {
			t.Errorf("%s: outcome %d, want %d", c.name, out, c.want)
		}
		if out == Corrected && (diag.Pos != 9 || diag.Magnitude != 1) {
			t.Errorf("%s: located %+v, want position 9, magnitude 1", c.name, diag)
		}
	}
	// δ2 and δ3 broken but inside the drift window, as in the drift rows.
	for _, c := range []struct{ etas, drift [3]float64 }{
		{noEta, [3]float64{0, 1e-8, 1e-8}},
		{[3]float64{1e-9, 1e-9, 1e-9}, [3]float64{0, 2e-5, 1e-5}},
	} {
		for _, d := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			c.drift[0] = d
			if out, _ := Triage(c.drift, abs, c.etas, n, Tol{}); out == Reanchored {
				t.Errorf("δ1 = %g (η %g) accepted as drift", d, c.etas[0])
			}
		}
	}
}

func TestVerifyVector(t *testing.T) {
	x := []float64{1, 2, 3}
	s := Checksums(x, Triple)
	if !VerifyVector(x, Triple, s, Tol{}) {
		t.Fatalf("clean vector failed verification")
	}
	x[1] += 100
	if VerifyVector(x, Triple, s, Tol{}) {
		t.Fatalf("corrupted vector passed verification")
	}
}

// TestBoundUpdatesTrackRoundoff: a long chain of updates keeps the true
// drift within BoundSafety·η — the soundness property of the running
// bounds.
func TestBoundUpdatesTrackRoundoff(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 2000
	x := randVec(rng, n)
	s := Checksums(x, Single)
	eta := []float64{float64(n) * Eps * Ones.Apply(abs(x))}
	// 200 random axpy updates.
	y := randVec(rng, n)
	sy := Checksums(y, Single)
	etaY := []float64{float64(n) * Eps * Ones.Apply(abs(y))}
	for k := 0; k < 200; k++ {
		alpha := rng.NormFloat64()
		for i := range x {
			x[i] += alpha * y[i]
		}
		UpdateVLOAxpyBound(s, eta, alpha, sy, etaY)
	}
	drift := math.Abs(Ones.Apply(x) - s[0])
	if drift > BoundSafety*eta[0] {
		t.Fatalf("true drift %v exceeds safety bound %v", drift, BoundSafety*eta[0])
	}
}

func abs(x []float64) []float64 {
	a := make([]float64, len(x))
	for i, v := range x {
		a[i] = math.Abs(v)
	}
	return a
}

// TestBoundChainSoundnessProperty drives random MVM/PCO/VLO update chains
// and checks the soundness contract of the running bounds: the true drift
// |cᵀx − s| never exceeds BoundSafety·η, for both the practical and the
// Lemma 2 decoupling scalars (1024 is Lemma 2's bound on this operator).
func TestBoundChainSoundnessProperty(t *testing.T) {
	a := sparse.Laplacian2D(8, 8)
	n := a.Rows
	for _, d := range []float64{4, 64, 1024} {
		enc := EncodeMatrix(a, Single, d)
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			x := randVec(r, n)
			s := Checksums(x, Single)
			eta := []float64{float64(n) * Eps * Ones.Apply(abs(x))}
			y := make([]float64, n)
			sy := make([]float64, 1)
			etaY := make([]float64, 1)
			for step := 0; step < 30; step++ {
				switch step % 3 {
				case 0: // y = A x
					a.MulVec(y, x)
					enc.UpdateMVMBound(sy, etaY, x, s, eta)
					copy(x, y)
					copy(s, sy)
					copy(eta, etaY)
				case 1: // scale to keep magnitudes bounded
					alpha := 0.05 + r.Float64()
					for i := range x {
						x[i] *= alpha
					}
					s[0] *= alpha
					eta[0] *= alpha
				case 2: // axpy with a fresh random vector
					z := randVec(r, n)
					sz := Checksums(z, Single)
					etaZ := []float64{float64(n) * Eps * Ones.Apply(abs(z))}
					beta := r.NormFloat64()
					for i := range x {
						x[i] += beta * z[i]
					}
					UpdateVLOAxpyBound(s, eta, beta, sz, etaZ)
				}
				drift := math.Abs(Ones.Apply(x) - s[0])
				if drift > BoundSafety*eta[0]+1e-300 {
					t.Logf("d=%g step=%d drift %v > bound %v", d, step, drift, BoundSafety*eta[0])
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
			t.Fatalf("d=%g: %v", d, err)
		}
	}
}

// TestDiagnosisRobustToFloatNoise: real deltas carry round-off from the
// checksum computations; the classification must survive relative noise up
// to ~1e-9 on every component.
func TestDiagnosisRobustToFloatNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 8 + r.Intn(300)
		pos := r.Intn(n)
		mag := 1 + r.Float64()*1e5
		d := makeDeltas([]int{pos}, []float64{mag})
		for k := range d {
			d[k] *= 1 + 1e-9*r.NormFloat64()
		}
		diag := Diagnose(d, n, refs(n), Tol{})
		return diag.Kind == SingleError && diag.Pos == pos
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
