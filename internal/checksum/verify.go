package checksum

import "math"

// DefaultTheta is the paper's verification threshold θ = 1e-10 (§5.1).
const DefaultTheta = 1e-10

// Tol controls checksum verification. The paper divides the raw
// inconsistency by n to keep round-off scaling under control
// ("we apply (checksum(x) − cᵀx)/n", §5.1); we additionally scale by the
// checksum magnitude so the test is invariant to the overall data scale.
type Tol struct {
	// Theta is the acceptance threshold for |δ| / (n·(1+|ref|)).
	Theta float64
}

// DefaultTol returns the paper's θ = 1e-10 tolerance.
func DefaultTol() Tol { return Tol{Theta: DefaultTheta} }

// Consistent reports whether an inconsistency δ for a vector of length n is
// attributable to round-off. ref is the reference checksum magnitude
// (typically the expected checksum value), which makes the test relative.
func (t Tol) Consistent(delta float64, n int, ref float64) bool {
	if n <= 0 {
		return true
	}
	scale := float64(n) * (1 + math.Abs(ref))
	return math.Abs(delta)/scale <= t.theta()
}

// BoundSafety is the multiple of the running round-off bound η below which
// an inconsistency is attributed to floating point. The η bounds are
// first-order (they ignore O(ε²) terms and assume the standard summation
// model), so a modest safety factor absorbs the slack.
const BoundSafety = 32

// ConsistentBound is the verification rule the ABFT engines use: an
// inconsistency δ of a length-n vector is round-off if
// |δ| ≤ max(θ·max(n, absSum), BoundSafety·η). absSum is the absolute
// weighted sum Σ|c_i·x_i| of the vector being verified: the natural
// magnitude scale of the checksum computation (it bounds its accumulated
// round-off), which keeps the test robust when cᵀx itself is small through
// cancellation. The max(n, ·) floor implements the paper's /n normalization
// for vectors of small magnitude. η is the running round-off bound carried
// by the vector's checksum (see the Bound update rules in encode.go);
// without it, the d-amplified update noise (≈ n·ε·d·Σ|u|) makes the fixed
// θ misfire for large n·d. A caller that carries no η passes 0, leaving the
// θ term alone. A NaN δ or absSum fails the rule.
func (t Tol) ConsistentBound(delta float64, n int, absSum, eta float64) bool {
	scale := absSum
	if s := float64(n); s > scale {
		scale = s
	}
	limit := t.theta() * scale
	if b := BoundSafety * eta; b > limit {
		limit = b
	}
	return math.Abs(delta) <= limit
}

func (t Tol) theta() float64 {
	if t.Theta <= 0 {
		return DefaultTheta
	}
	return t.Theta
}

// VerifyVector recomputes cᵀx for each weight and checks the carried
// checksums, returning true when every relationship holds. This is the
// outer-level verification (line 6 of Algorithm 1) generalized to any
// number of checksums.
func VerifyVector(x []float64, weights []Weight, expected []float64, tol Tol) bool {
	for k, w := range weights {
		delta := w.Apply(x) - expected[k]
		if !tol.Consistent(delta, len(x), expected[k]) {
			return false
		}
	}
	return true
}
