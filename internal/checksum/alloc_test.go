package checksum

import (
	"math"
	"runtime/debug"
	"testing"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// TestUpdateAndVerifyAllocs pins the unfused Eq. (2) MVM update with one,
// two and three carried checksums, and the outer-level check VerifyVector
// (the t_d of Eq. (5)), at 0 allocations per call on a 4 000-row circuit
// operator (docs/testing.md §13).
func TestUpdateAndVerifyAllocs(t *testing.T) {
	a := sparse.CircuitLike(4000, 20160531)
	x := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i%13) * 0.1
	}
	for _, tc := range []struct {
		name    string
		weights []Weight
	}{
		{"single", Single},
		{"double", Double},
		{"triple", Triple},
	} {
		t.Run(tc.name, func(t *testing.T) {
			enc := EncodeMatrix(a, tc.weights, PracticalD(a))
			s := Checksums(x, tc.weights)
			eta := make([]float64, len(tc.weights))
			dst := make([]float64, len(tc.weights))
			etaDst := make([]float64, len(tc.weights))
			if n := testing.AllocsPerRun(20, func() {
				enc.UpdateMVMBound(dst, etaDst, x, s, eta)
			}); n != 0 {
				t.Errorf("UpdateMVMBound: %v allocations per call, want 0", n)
			}
		})
	}
	t.Run("verify", func(t *testing.T) {
		v := make([]float64, a.Rows)
		for i := range v {
			v[i] = math.Sin(float64(i))
		}
		s := Checksums(v, Single)
		ok := true
		if n := testing.AllocsPerRun(20, func() {
			ok = ok && VerifyVector(v, Single, s, DefaultTol())
		}); n != 0 {
			t.Errorf("VerifyVector: %v allocations per call, want 0", n)
		}
		if !ok {
			t.Errorf("clean vector failed verification")
		}
	})
}

// TestRederivesAllocatesNothing: the admission check's second derivation
// runs in scratch from vec's pool, so once the shelf for the operator's
// order is warm it allocates nothing (docs/testing.md §13). The collector
// is off and vec.Settle runs first, so no age pass of the pool lands inside
// the measurement.
func TestRederivesAllocatesNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := sparse.CircuitLike(4000, 20160531)
	e := NewEncoding(a, 0)
	if !e.Rederives(a) {
		t.Fatal("a fresh encoding was refused")
	}
	vec.Settle()
	ok := true
	if n := testing.AllocsPerRun(20, func() { ok = ok && e.Rederives(a) }); n != 0 {
		t.Errorf("Rederives: %v allocations per call, want 0", n)
	}
	if !ok {
		t.Error("a fresh encoding was refused on a repeat check")
	}
}
