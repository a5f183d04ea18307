package checksum

import (
	"math"
	"math/rand"
	"testing"

	"newsum/internal/sparse"
)

// Native fuzz targets for the paper's update rules: whatever inputs the
// fuzzer invents, the O(n)/O(1) checksum updates of Eq. (2) (MVM), Eq. (4)
// (PCO) and Eq. (3) (VLO) must agree with the O(n) direct recomputation of
// cᵀv on the operation's actual output, within the propagated first-order
// round-off bound. Seeds live under testdata/fuzz; ./verify.sh replays them
// on every run via `go test -run Fuzz -fuzz=^$`.

// fuzzDim maps an arbitrary fuzzed int onto a usable problem size.
func fuzzDim(n int) int {
	if n < 0 {
		n = -n
	}
	return 2 + n%48
}

// fuzzClamp maps an arbitrary fuzzed float onto a finite value in
// (-lim, lim), defaulting NaN/Inf to 1 so every fuzz input is admissible.
func fuzzClamp(v, lim float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 1
	}
	if math.Abs(v) >= lim {
		return math.Mod(v, lim)
	}
	return v
}

// weightedAbsSum returns Σ|c_i·v_i|, the magnitude scale of a checksum
// computation (what bounds its accumulated round-off).
func weightedAbsSum(w Weight, v []float64) float64 {
	var s float64
	for i, x := range v {
		s += math.Abs(w.At(i) * x)
	}
	return s
}

// directEta is the first-order round-off bound of computing cᵀv directly,
// used to seed the Bound update chains with an honest input η.
func directEta(n int, w Weight, v []float64) float64 {
	return float64(n) * Eps * weightedAbsSum(w, v)
}

// FuzzChecksumMVM checks the Eq. (2) MVM update and the Eq. (4) PCO update
// against direct recomputation: checksum_k(A·u) from Rows_k·u + d·su_k must
// match c_kᵀ(A·u), and the solve update (su_k − Rows_k·y)/d must match
// c_kᵀy for M·y = u, for all three weights of the two-level scheme.
func FuzzChecksumMVM(f *testing.F) {
	f.Add(int64(1), 8, 1.0)
	f.Add(int64(20160531), 33, -2.5)
	f.Add(int64(7), 47, 1e3)
	f.Add(int64(-99), 2, 1e-4)
	f.Fuzz(func(t *testing.T, seed int64, n int, scale float64) {
		nn := fuzzDim(n)
		scale = fuzzClamp(scale, 1e6)
		if scale == 0 {
			scale = 1
		}
		rng := rand.New(rand.NewSource(seed))
		a := sparse.DiagDominant(nn, 4, seed)
		u := make([]float64, nn)
		for i := range u {
			u[i] = scale * (2*rng.Float64() - 1)
		}
		d := PracticalD(a)
		su := Checksums(u, Triple)
		etaSrc := make([]float64, len(Triple))
		for k, w := range Triple {
			etaSrc[k] = directEta(nn, w, u)
		}
		tol := DefaultTol()

		// Eq. (2): w = A·u computed by the real operation, checksums by the
		// update rule from the input side only.
		enc := EncodeMatrix(a, Triple, d)
		w := make([]float64, nn)
		a.MulVec(w, u)
		got := make([]float64, len(Triple))
		eta := make([]float64, len(Triple))
		enc.UpdateMVMBound(got, eta, u, su, etaSrc)
		for k, wt := range Triple {
			want := wt.Apply(w)
			if !tol.ConsistentBound(got[k]-want, nn, weightedAbsSum(wt, w), eta[k]) {
				t.Errorf("MVM %s: update %g vs direct %g (δ=%g, η=%g)",
					wt.Name, got[k], want, got[k]-want, eta[k])
			}
		}

		// Eq. (4): diagonal solve M·y = u — invertible by construction, so
		// the reference solution is exact division.
		coo := sparse.NewCOO(nn, nn)
		diag := make([]float64, nn)
		for i := 0; i < nn; i++ {
			diag[i] = 1 + 3*rng.Float64()
			coo.Add(i, i, diag[i])
		}
		msolve := coo.ToCSR()
		y := make([]float64, nn)
		for i := range y {
			y[i] = u[i] / diag[i]
		}
		encM := EncodeMatrix(msolve, Triple, d)
		gotP := make([]float64, len(Triple))
		etaP := make([]float64, len(Triple))
		encM.UpdatePCOBound(gotP, etaP, y, su, etaSrc)
		for k, wt := range Triple {
			want := wt.Apply(y)
			if !tol.ConsistentBound(gotP[k]-want, nn, weightedAbsSum(wt, y), etaP[k]) {
				t.Errorf("PCO %s: update %g vs direct %g (δ=%g, η=%g)",
					wt.Name, gotP[k], want, gotP[k]-want, etaP[k])
			}
		}
	})
}

// FuzzDiagnoseSingleStrike checks the §5.2 localization end to end on a
// real corruption: whatever vector, position and magnitude the fuzzer
// invents, Diagnose applied to the measured inconsistencies must never
// report a SingleError at the wrong position — that is the fake-correction
// hazard, and "correcting" a healthy element is strictly worse than the
// rollback a MultipleErrors verdict falls back to. Sub-threshold magnitudes
// may legitimately come back NoError and ambiguous ones MultipleErrors;
// neither is a safety violation.
func FuzzDiagnoseSingleStrike(f *testing.F) {
	f.Add(int64(1), 8, 3, 1e4)
	f.Add(int64(42), 30, 0, -2.5)
	// Near-θ magnitude: barely above the detection threshold, where the
	// locator ratio carries the most relative round-off.
	f.Add(int64(7), 47, 46, 6e-9)
	f.Add(int64(9), 47, 1, -6e-9)
	// Denormal magnitude: far below threshold, must classify NoError.
	f.Add(int64(13), 20, 10, 5e-318)
	// Huge magnitude at the far end of the vector.
	f.Add(int64(99), 48, 47, 1e11)
	f.Fuzz(func(t *testing.T, seed int64, n, idx int, mag float64) {
		nn := fuzzDim(n)
		idx = ((idx % nn) + nn) % nn
		e := fuzzClamp(mag, 1e12)
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, nn)
		for i := range v {
			v[i] = 2*rng.Float64() - 1
		}
		s := Checksums(v, Triple)
		v[idx] += e
		deltas := make([]float64, len(Triple))
		absSums := make([]float64, len(Triple))
		for k, w := range Triple {
			deltas[k] = w.Apply(v) - s[k]
			absSums[k] = weightedAbsSum(w, v)
		}
		diag := Diagnose(deltas, nn, absSums, DefaultTol())
		if diag.Kind != SingleError {
			return
		}
		if diag.Pos != idx {
			t.Fatalf("mislocated single error: struck %d, diagnosed %d (e=%g, deltas=%v)",
				idx, diag.Pos, e, deltas)
		}
		if math.Abs(diag.Magnitude-e) > 1e-3*math.Abs(e)+1e-9 {
			t.Errorf("magnitude estimate %g for injected %g", diag.Magnitude, e)
		}
	})
}

// FuzzDiagnoseRawDeltas drives Diagnose with raw, unconstrained δ triples —
// including NaN, infinities, denormal locator ratios and near-θ values — and
// checks the hard containment invariants: no panic, and any SingleError
// verdict names an in-range position with the δ1 magnitude.
func FuzzDiagnoseRawDeltas(f *testing.F) {
	f.Add(1.0, 3.0, 1.0/3.0, 8)
	// Denormal locator ratio j = δ2/δ1: must be rejected, not mislocated.
	f.Add(1.0, 5e-324, 0.0, 16)
	f.Add(5e-324, 1.0, 5e-324, 16)
	// Near-θ deltas around the n-scaled acceptance boundary.
	f.Add(5.1e-9, 1.02e-8, 2.55e-9, 48)
	f.Add(4.7e-9, 9.4e-9, 2.35e-9, 48)
	// Non-finite inputs.
	f.Add(math.NaN(), 1.0, 1.0, 8)
	f.Add(math.Inf(1), math.Inf(-1), 0.0, 8)
	// Integral locator but failed arithmetic/harmonic-mean identity (the
	// two-equal-errors pattern that fools the double checksum).
	f.Add(2.0, 4.0, 4.0/3.0, 8)
	// A burst-sized single-error pattern (j = 3): δ1² and δ2·δ3 both
	// overflow, and Inf − Inf is NaN.
	f.Add(1e305, 3e305, 1e305/3, 8)
	f.Fuzz(func(t *testing.T, d1, d2, d3 float64, n int) {
		nn := fuzzDim(n)
		deltas := []float64{d1, d2, d3}
		absSums := []float64{1, float64(nn), 1}
		diag := Diagnose(deltas, nn, absSums, DefaultTol())
		if diag.Kind != SingleError {
			return
		}
		lhs, rhs := d2*d3, d1*d1
		for _, v := range []float64{lhs, rhs, lhs - rhs} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("SingleError with a non-finite identity term: δ2·δ3 = %g, δ1² = %g", lhs, rhs)
			}
		}
		if diag.Pos < 0 || diag.Pos >= nn {
			t.Fatalf("single-error position %d out of range [0,%d)", diag.Pos, nn)
		}
		if !sameFloat(diag.Magnitude, d1) {
			t.Errorf("single-error magnitude %g, want δ1 = %g", diag.Magnitude, d1)
		}
	})
}

// sameFloat compares bit patterns so NaN == NaN for assertion purposes.
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// FuzzChecksumVLO checks the Eq. (3) vector-linear-operation updates —
// axpby, scale, and in-place axpy — against direct recomputation on the
// operation's output.
func FuzzChecksumVLO(f *testing.F) {
	f.Add(int64(2), 16, 1.5, -0.25)
	f.Add(int64(13), 5, 0.0, 1.0)
	f.Add(int64(20160531), 40, -1e4, 1e-5)
	f.Fuzz(func(t *testing.T, seed int64, n int, alpha, beta float64) {
		nn := fuzzDim(n)
		alpha = fuzzClamp(alpha, 1e8)
		beta = fuzzClamp(beta, 1e8)
		rng := rand.New(rand.NewSource(seed))
		x := make([]float64, nn)
		y := make([]float64, nn)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
			y[i] = 2*rng.Float64() - 1
		}
		sx := Checksums(x, Triple)
		sy := Checksums(y, Triple)
		tol := DefaultTol()
		// η for one update on exactly-known inputs: the direct-computation
		// round-off of both operands at their scaled magnitudes.
		eta := func(k int) float64 {
			w := Triple[k]
			return float64(nn) * Eps * (math.Abs(alpha)*weightedAbsSum(w, x) +
				math.Abs(beta)*weightedAbsSum(w, y) + 4)
		}

		// z = αx + βy.
		z := make([]float64, nn)
		for i := range z {
			z[i] = alpha*x[i] + beta*y[i]
		}
		sz := make([]float64, len(Triple))
		UpdateVLOAxpby(sz, alpha, sx, beta, sy)
		for k, wt := range Triple {
			want := wt.Apply(z)
			if !tol.ConsistentBound(sz[k]-want, nn, weightedAbsSum(wt, z), eta(k)) {
				t.Errorf("axpby %s: update %g vs direct %g", wt.Name, sz[k], want)
			}
		}

		// w = αx.
		wv := make([]float64, nn)
		for i := range wv {
			wv[i] = alpha * x[i]
		}
		sw := make([]float64, len(Triple))
		UpdateVLOScale(sw, alpha, sx)
		for k, wt := range Triple {
			want := wt.Apply(wv)
			if !tol.ConsistentBound(sw[k]-want, nn, weightedAbsSum(wt, wv), eta(k)) {
				t.Errorf("scale %s: update %g vs direct %g", wt.Name, sw[k], want)
			}
		}

		// y += αx in place, checksums carried in place too.
		y2 := append([]float64(nil), y...)
		for i := range y2 {
			y2[i] += alpha * x[i]
		}
		sy2 := append([]float64(nil), sy...)
		UpdateVLOAxpy(sy2, alpha, sx)
		for k, wt := range Triple {
			want := wt.Apply(y2)
			if !tol.ConsistentBound(sy2[k]-want, nn, weightedAbsSum(wt, y2), eta(k)) {
				t.Errorf("axpy %s: update %g vs direct %g", wt.Name, sy2[k], want)
			}
		}
	})
}
