package checksum

import (
	"math"
	"math/rand"
	"testing"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// The *From variants exist so the fused kernels can feed row reductions
// taken inside another sweep through the exact bound formulas the serial
// path uses. The contract: given rowSum/rowAbs equal to vec.DotAbs on each
// encoded row, the From form is bitwise-identical to the direct form —
// value AND η — also when it runs in place (dst = su, etaDst = etaSrc), as
// the engine's stage chain runs it.
func TestUpdateBoundFromMatchesDirect(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := sparse.Laplacian2D(9, 9)
	enc := EncodeMatrix(a, Triple, 64)
	u := randVec(rng, a.Rows)
	su := Checksums(u, Triple)
	eta := []float64{1e-12, 3e-13, 7e-14}

	nw := len(Triple)
	rowSum := make([]float64, nw)
	rowAbs := make([]float64, nw)
	for k, row := range enc.Rows {
		rowSum[k], rowAbs[k] = vec.DotAbs(row, u)
	}

	for _, tc := range []struct {
		name   string
		direct func(dst, etaDst []float64)
		from   func(dst, etaDst []float64)
	}{
		{
			name:   "mvm",
			direct: func(dst, etaDst []float64) { enc.UpdateMVMBound(dst, etaDst, u, su, eta) },
			from:   func(dst, etaDst []float64) { enc.UpdateMVMBoundFrom(dst, etaDst, rowSum, rowAbs, su, eta) },
		},
		{
			name:   "pco",
			direct: func(dst, etaDst []float64) { enc.UpdatePCOBound(dst, etaDst, u, su, eta) },
			from:   func(dst, etaDst []float64) { enc.UpdatePCOBoundFrom(dst, etaDst, rowSum, rowAbs, su, eta) },
		},
	} {
		want := make([]float64, nw)
		wantEta := make([]float64, nw)
		tc.direct(want, wantEta)
		got := make([]float64, nw)
		gotEta := make([]float64, nw)
		tc.from(got, gotEta)
		inPlace := append([]float64(nil), su...)
		inPlaceEta := append([]float64(nil), eta...)
		saveSu, saveEta := su, eta
		su, eta = inPlace, inPlaceEta
		tc.from(inPlace, inPlaceEta)
		su, eta = saveSu, saveEta
		for k := range want {
			if math.Float64bits(inPlace[k]) != math.Float64bits(want[k]) ||
				math.Float64bits(inPlaceEta[k]) != math.Float64bits(wantEta[k]) {
				t.Errorf("%s weight %d: in place (%x, %x), direct (%x, %x)", tc.name, k,
					inPlace[k], inPlaceEta[k], want[k], wantEta[k])
			}
			if math.Float64bits(got[k]) != math.Float64bits(want[k]) {
				t.Errorf("%s weight %d: From %x, direct %x", tc.name, k,
					math.Float64bits(got[k]), math.Float64bits(want[k]))
			}
			if math.Float64bits(gotEta[k]) != math.Float64bits(wantEta[k]) {
				t.Errorf("%s weight %d: From η %x, direct η %x", tc.name, k,
					math.Float64bits(gotEta[k]), math.Float64bits(wantEta[k]))
			}
		}
	}
}

func TestUpdateBoundFromPanicsOnSlotMismatch(t *testing.T) {
	enc := EncodeMatrix(sparse.Identity(4), Single, 8)
	good := make([]float64, 1)
	bad := make([]float64, 2)
	for name, f := range map[string]func(){
		"mvm": func() { enc.UpdateMVMBoundFrom(good, good, bad, good, good, good) },
		"pco": func() { enc.UpdatePCOBoundFrom(good, good, good, bad, good, good) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic on slot mismatch", name)
				}
			}()
			f()
		}()
	}
}

// TestReduceEpsDepth pins the accumulation-depth model behind every η
// bound: depth = min(n, Block + 2 + ⌈log₂ blocks(n)⌉), monotone shrink
// versus the naive n·ε bound once n clears a couple of blocks.
func TestReduceEpsDepth(t *testing.T) {
	for _, tc := range []struct {
		n     int
		depth int
	}{
		{1, 1},                   // clamped at n
		{64, 64},                 // still below Block+2
		{128, 128},               // exactly one block, clamp wins
		{256, vec.Block + 2 + 1}, // two blocks: one combine level
		{1 << 20, vec.Block + 2 + 13},
	} {
		if got := ReduceEps(tc.n) / Eps; got != float64(tc.depth) {
			t.Errorf("ReduceEps(%d) = %v·ε, want %d·ε", tc.n, got, tc.depth)
		}
	}
	// The whole point: at n = 2²⁰ the bound is ~7000× tighter than n·ε.
	n := 1 << 20
	if ratio := float64(n) * Eps / ReduceEps(n); ratio < 5000 {
		t.Errorf("tightening ratio at n=2^20 is only %.0f", ratio)
	}
}
