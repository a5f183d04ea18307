package checksum

import "math"

// Diagnosis classifies the checksum state of an MVM output vector under the
// triple-checksum mechanism of §5.2.
type Diagnosis int

const (
	// NoError: all checksum relationships hold to within round-off.
	NoError Diagnosis = iota
	// SingleError: exactly one element is corrupted; position and
	// magnitude are recoverable.
	SingleError
	// MultipleErrors: the vector is inconsistent but the single-error test
	// δ2·δ3 = δ1² fails, so immediate rollback is required.
	MultipleErrors
)

func (d Diagnosis) String() string {
	switch d {
	case NoError:
		return "no-error"
	case SingleError:
		return "single-error"
	case MultipleErrors:
		return "multiple-errors"
	default:
		return "unknown-diagnosis"
	}
}

// IntegralityTol bounds how far the locator ratio j = δ2/δ1 may sit from
// the nearest integer before localization is rejected. The tolerance is
// applied relative to max(1, |j|): round-off in δ1 and δ2 grows with the
// weighted sums — and hence with the located index — so an absolute bound
// tight enough for j near 1 would spuriously reject legitimate single
// errors near the far end of a long vector, while an absolute bound loose
// enough for large j would accept mislocations near the start.
const IntegralityTol = 1e-3

// nearestIndex rounds the locator ratio jf to the nearest 1-based index and
// reports whether it is acceptably integral and within [1, n]. Rounding is
// to-nearest (not truncation): under round-off the ratio lands on either
// side of the true integer with equal probability, and truncating a value
// like 6.9999994 would mislocate the error one element early.
func nearestIndex(jf float64, n int) (j float64, ok bool) {
	j = math.Round(jf)
	if j < 1 || j > float64(n) {
		return j, false
	}
	return j, math.Abs(jf-j) <= IntegralityTol*math.Max(1, math.Abs(j))
}

// TripleDiagnosis is the full result of analysing the three checksum
// inconsistencies δ1, δ2, δ3 of an output vector.
type TripleDiagnosis struct {
	Kind Diagnosis
	// Pos is the zero-based index of the corrupted element when
	// Kind == SingleError.
	Pos int
	// Magnitude is the additive error e = y'_j − y_j; subtracting it from
	// y[Pos] restores the correct value.
	Magnitude float64
}

// Diagnose applies the §5.2 triple-checksum analysis to the inconsistencies
// deltas = (δ1, δ2, δ3) of a length-n vector. absSums[k] is the absolute
// weighted sum Σ|c_k(i)·y_i| of the vector, the magnitude scale the
// Tol.ConsistentAbs verification rule uses.
//
// Detection uses δ1 alone (the cheap probe). On inconsistency, the
// arithmetic-mean/harmonic-mean identity δ2·δ3 = δ1² discriminates a single
// error (the two means agree only when all corrupted positions coincide,
// i.e. k = 1) from multiple errors, eliminating the fake-correction case of
// the double-checksum scheme. For a single error the position is
// j = δ2/δ1 (1-based); the result cross-checks j against δ1/δ3 and
// integrality before trusting it.
func Diagnose(deltas []float64, n int, absSums []float64, tol Tol) TripleDiagnosis {
	if len(deltas) != 3 || len(absSums) != 3 {
		panic("checksum: Diagnose requires exactly three checksums (Triple weights)")
	}
	d1, d2, d3 := deltas[0], deltas[1], deltas[2]
	if tol.ConsistentAbs(d1, n, absSums[0]) {
		return TripleDiagnosis{Kind: NoError}
	}
	// Single-error test: δ2·δ3 = δ1², compared with a relative tolerance
	// since all quantities scale with the error magnitude e. A large burst
	// overflows δ1² or δ2·δ3 to Inf, and Inf − Inf is NaN, which fails
	// every comparison: the difference must be finite (NaN and +Inf are
	// not ≤ MaxFloat64) before it can pass as a single error.
	lhs := d2 * d3
	rhs := d1 * d1
	scale := math.Max(math.Abs(lhs), math.Abs(rhs))
	diff := math.Abs(lhs - rhs)
	if scale == 0 || !(diff <= math.MaxFloat64) || diff > 1e-6*scale {
		return TripleDiagnosis{Kind: MultipleErrors}
	}
	j, ok := nearestIndex(d2/d1, n)
	if !ok {
		return TripleDiagnosis{Kind: MultipleErrors}
	}
	// Cross-check against the harmonic locator δ1/δ3 = j.
	if d3 != 0 {
		jh := d1 / d3
		if math.Abs(jh-j) > IntegralityTol*math.Max(1, j) {
			return TripleDiagnosis{Kind: MultipleErrors}
		}
	}
	return TripleDiagnosis{Kind: SingleError, Pos: int(j) - 1, Magnitude: d1}
}

// CorrectSingle repairs a single corrupted element in place:
// y[diag.Pos] −= diag.Magnitude. It panics if the diagnosis is not
// SingleError, which would indicate a logic error in the caller.
func CorrectSingle(y []float64, diag TripleDiagnosis) {
	if diag.Kind != SingleError {
		panic("checksum: CorrectSingle called without a single-error diagnosis")
	}
	y[diag.Pos] -= diag.Magnitude
}

// FakeCorrectionExample builds a k-error corruption pattern that fools the
// double-checksum locator (equal magnitudes at positions whose 1-based
// indices sum to a multiple of k, §5.2) — the motivating counterexample for
// the third checksum. It returns the zero-based positions and the common
// magnitude, or ok=false if n is too small to host the pattern.
func FakeCorrectionExample(n int, e float64) (pos []int, mag float64, ok bool) {
	if n < 4 {
		return nil, 0, false
	}
	// Two errors at 1-based positions p and p+2 average to p+1: the
	// double-checksum locator "finds" position p+1 and corrupts a third,
	// previously healthy element.
	return []int{0, 2}, e, true
}

// DoubleLocate performs the naive double-checksum localization
// (j = δ2/δ1) without the triple-checksum guard, for demonstrating and
// testing the fake-correction hazard. It returns the zero-based position
// the scheme would "correct" and whether that position is in range.
func DoubleLocate(d1, d2 float64, n int) (pos int, ok bool) {
	if d1 == 0 {
		return 0, false
	}
	j, ok := nearestIndex(d2/d1, n)
	if !ok {
		return 0, false
	}
	return int(j) - 1, true
}
