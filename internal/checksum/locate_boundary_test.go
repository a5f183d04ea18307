package checksum

import (
	"math"
	"testing"
)

// Boundary tables for the localization chain: nearestIndex's
// round-to-nearest + IntegralityTol guard, Diagnose's range and identity
// checks, and the unguarded DoubleLocate it protects against.

func TestNearestIndexBoundaries(t *testing.T) {
	const n = 100
	cases := []struct {
		name   string
		jf     float64
		n      int
		wantJ  float64
		wantOK bool
	}{
		// Round-to-nearest: a locator ratio landing just under the true
		// integer must not be truncated one element early.
		{"just-below-integer", 6.9999994, n, 7, true},
		{"just-above-integer", 7.0000004, n, 7, true},
		// Either side of the relative tolerance boundary (1e-3·max(1,j));
		// the exact boundary 3.003 is avoided, binary representation puts
		// it a few ulps past 3·1e-3.
		{"within-tolerance-small-j", 3.0029, n, 3, true},
		{"past-tolerance-small-j", 3.004, n, 3, false},
		// Near j = 1 the tolerance floor max(1, |j|) applies.
		{"near-one-within", 0.9999, n, 1, true},
		{"near-one-outside", 0.99, n, 1, false},
		// Large j: the relative tolerance scales with the index, so an
		// offset that would fail near the start passes at the far end.
		{"large-j-relative", 5000.4, 10000, 5000, true},
		{"large-j-outside", 5006.0, 10000, 5006, true},
		// Once 1e-3·j exceeds 0.5 the integrality guard is vacuous — every
		// ratio is within tolerance of its rounding — and only the mean
		// identity and the confirmation layer protect large indices.
		{"large-j-midway-vacuous", 5000.5000001, 10000, 5001, true},
		// Range guards: valid 1-based indices are [1, n].
		{"below-range", 0.4, n, 0, false},
		{"above-range", 100.6, n, 101, false},
		{"at-n-within", 100.05, n, 100, true},
		{"negative", -2.0, n, -2, false},
		// Halfway between integers is never acceptably integral.
		{"halfway", 6.5, n, 7, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, ok := nearestIndex(tc.jf, tc.n)
			if ok != tc.wantOK {
				t.Errorf("nearestIndex(%v, %d) ok = %v, want %v", tc.jf, tc.n, ok, tc.wantOK)
			}
			if j != tc.wantJ {
				t.Errorf("nearestIndex(%v, %d) j = %v, want %v", tc.jf, tc.n, j, tc.wantJ)
			}
		})
	}
}

func TestDiagnoseLocatorBoundaries(t *testing.T) {
	const n = 100
	const e = 50.0
	cases := []struct {
		name   string
		deltas []float64
		want   Diagnosis
		pos    int
	}{
		// A locator ratio perturbed by relative round-off still rounds to
		// the far-end index instead of truncating to n−1.
		{"far-end-roundoff", []float64{e, float64(n) * e * (1 - 1e-9), e / float64(n)}, SingleError, n - 1},
		// Consistent "single error" signatures pointing outside [1, n] must
		// be rejected, not clamped.
		{"locator-above-n", []float64{e, float64(n+1) * e, e / float64(n+1)}, MultipleErrors, 0},
		{"locator-below-one", []float64{e, 0.3 * e, e / 0.3}, MultipleErrors, 0},
		// Aliased equal pair at small 1-based positions (2, 4): the locator
		// is exactly integral (j = 3) but the mean identity fails by 12.5%.
		{"aliased-pair-small", makeDeltas([]int{1, 3}, []float64{e, e}), MultipleErrors, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			diag := Diagnose(tc.deltas, n, refs(n), Tol{})
			if diag.Kind != tc.want {
				t.Fatalf("Diagnose(%v) = %v, want %v", tc.deltas, diag.Kind, tc.want)
			}
			if tc.want == SingleError && diag.Pos != tc.pos {
				t.Errorf("located %d, want %d", diag.Pos, tc.pos)
			}
		})
	}
}

// TestDiagnoseAliasedPairLargeJ pins the known residual hazard the solvers'
// post-correction confirmation exists for: equal magnitudes at 1-based
// positions p and p+2 satisfy the mean identity to within 1/(p(p+2)) —
// inside the 1e-6 relative window once p ≳ 1000 — and the harmonic locator
// sits only 1/(p+1) from the integral midpoint, inside IntegralityTol's
// relative band. Diagnose alone is fooled into naming the healthy midpoint;
// the solver-level confirmation (forward_hazard_test.go in internal/core)
// rejects the repair. If this test ever starts failing with MultipleErrors,
// Diagnose got strictly stronger and the comment there should be revisited.
func TestDiagnoseAliasedPairLargeJ(t *testing.T) {
	const n = 8281
	const p = 4001 // 1-based
	const e = 1e6
	deltas := makeDeltas([]int{p - 1, p + 1}, []float64{e, e})
	diag := Diagnose(deltas, n, refs(n), Tol{})
	if diag.Kind != SingleError {
		t.Fatalf("large-j aliased pair diagnosed %v; the §5.2 confirmation layer assumes SingleError here", diag.Kind)
	}
	if diag.Pos != p { // zero-based midpoint of 1-based p, p+2
		t.Errorf("fooled position %d, want midpoint %d", diag.Pos, p)
	}
	if math.Abs(diag.Magnitude-2*e) > 1e-6*2*e {
		t.Errorf("fooled magnitude %g, want δ1 = %g", diag.Magnitude, 2*e)
	}
}

func TestDoubleLocateBoundaries(t *testing.T) {
	const n = 100
	// The motivating §5.2 counterexample: equal errors at the
	// FakeCorrectionExample positions fool the unguarded double-checksum
	// locator into naming the healthy midpoint.
	pos, mag, ok := FakeCorrectionExample(n, 2.0)
	if !ok {
		t.Fatalf("FakeCorrectionExample unavailable at n=%d", n)
	}
	d := makeDeltas(pos, []float64{mag, mag})
	if got, ok := DoubleLocate(d[0], d[1], n); !ok || got != 1 {
		t.Errorf("double checksum should be fooled to midpoint 1, got (%d, %v)", got, ok)
	}
	// The triple scheme rejects the same signature outright.
	if diag := Diagnose(d, n, refs(n), Tol{}); diag.Kind != MultipleErrors {
		t.Errorf("triple checksum accepted the fake-correction signature: %v", diag.Kind)
	}
	// Degenerate and out-of-range locators.
	if _, ok := DoubleLocate(0, 5, n); ok {
		t.Errorf("zero δ1 must not localize")
	}
	if _, ok := DoubleLocate(1, 200, n); ok {
		t.Errorf("locator beyond n must not localize")
	}
	if _, ok := DoubleLocate(1, 0.3, n); ok {
		t.Errorf("locator below 1 must not localize")
	}
	// A non-finite δ (a burst that overflowed) fails the locator's own
	// comparisons: nothing to guard here, unlike Diagnose.
	if _, ok := DoubleLocate(math.NaN(), 5, n); ok {
		t.Errorf("NaN δ1 must not localize")
	}
}
