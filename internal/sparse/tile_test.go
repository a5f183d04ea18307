package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"newsum/internal/vec"
)

// The kernel layer's parallel SpMV is built on one property: because
// MulVec computes each row independently, any partition of the row space
// into MulVecRange tiles (or MulVecStride combs) composes to a result
// that is bitwise-identical to the single MulVec call — not merely close.
// This is what makes nnz-balanced chunking free of determinism cost. The
// property test here exercises random partitions, including empty and
// single-row tiles, on matrices with empty rows, dense rows, and extreme
// value magnitudes.

// bitsEqual reports a[i] and b[i] identical as IEEE-754 bit patterns.
func bitsEqual(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return i, false
		}
	}
	return -1, true
}

// randomPartition draws a sorted list of cut points 0 = c₀ ≤ … ≤ cₖ = rows;
// duplicates produce empty tiles on purpose (lo == hi is a valid range).
func randomPartition(rng *rand.Rand, rows, tiles int) []int {
	cuts := make([]int, tiles+1)
	for i := 1; i < tiles; i++ {
		cuts[i] = rng.Intn(rows + 1)
	}
	cuts[tiles] = rows
	sort.Ints(cuts)
	return cuts
}

// adversarialCSR stacks the structures that break naive tiling schemes:
// empty rows, one dense row, huge/tiny magnitudes mixed per row.
func adversarialCSR(rng *rand.Rand, rows, cols int) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		if i%7 == 3 {
			continue // empty row
		}
		nnz := 1 + rng.Intn(6)
		if i == rows/2 {
			nnz = cols // one dense row skews nnz balance
		}
		for k := 0; k < nnz; k++ {
			v := rng.NormFloat64() * math.Exp2(float64(rng.Intn(60)-30))
			c.Add(i, rng.Intn(cols), v)
		}
	}
	return c.ToCSR()
}

func TestMulVecRangeTilesComposeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		rows := 1 + rng.Intn(200)
		cols := 1 + rng.Intn(200)
		a := adversarialCSR(rng, rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
		}
		want := make([]float64, rows)
		a.MulVec(want, x)

		tiles := 1 + rng.Intn(rows+3) // may exceed rows: forces empty tiles
		cuts := randomPartition(rng, rows, tiles)
		got := make([]float64, rows)
		for i := range got {
			got[i] = math.NaN() // any row a tile misses must be caught
		}
		for k := 0; k+1 < len(cuts); k++ {
			a.MulVecRange(got, x, cuts[k], cuts[k+1])
			// The same rows into a local slice — a rank's view of its block.
			local := make([]float64, cuts[k+1]-cuts[k])
			a.MulVecRows(local, x, cuts[k], cuts[k+1])
			if i, ok := bitsEqual(local, want[cuts[k]:cuts[k+1]]); !ok {
				t.Fatalf("trial %d rows [%d, %d): local row %d = %x, MulVec %x",
					trial, cuts[k], cuts[k+1], i, local[i], want[cuts[k]+i])
			}
		}
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("trial %d cuts %v: row %d = %x, MulVec %x",
				trial, cuts, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

func TestMulVecStrideCombsComposeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for trial := 0; trial < 30; trial++ {
		rows := 1 + rng.Intn(150)
		cols := 1 + rng.Intn(150)
		a := adversarialCSR(rng, rows, cols)
		x := make([]float64, cols)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := make([]float64, rows)
		a.MulVec(want, x)

		stride := 1 + rng.Intn(rows+2) // may exceed rows: trailing combs empty
		got := make([]float64, rows)
		for i := range got {
			got[i] = math.NaN()
		}
		for start := 0; start < stride; start++ {
			a.MulVecStride(got, x, start, stride)
		}
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("trial %d stride %d: row %d = %x, MulVec %x",
				trial, stride, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestRangeAndStrideAgree closes the triangle: a range tiling and a stride
// combing of the same operator agree bitwise with each other (not just
// with MulVec), so the engine may mix the two access patterns — the cache
// fault-model path uses strides, the kernel pool uses ranges — without
// perturbing a single bit.
func TestRangeAndStrideAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	a := adversarialCSR(rng, 97, 97)
	x := make([]float64, 97)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	byRange := make([]float64, 97)
	for _, cut := range [][2]int{{0, 13}, {13, 13}, {13, 60}, {60, 97}} {
		a.MulVecRange(byRange, x, cut[0], cut[1])
	}
	byStride := make([]float64, 97)
	for s := 0; s < 5; s++ {
		a.MulVecStride(byStride, x, s, 5)
	}
	if i, ok := bitsEqual(byRange, byStride); !ok {
		t.Fatalf("row %d: range %x vs stride %x", i, math.Float64bits(byRange[i]), math.Float64bits(byStride[i]))
	}
}

// TestMulVecDotAbsTilesComposeBitwise: the fused SpMV keeps the tiling
// property, with the one extra condition that tiles start and end on leaf
// boundaries — any such partition, run in any order, gives MulVec's product
// and, once folded, DotAbs's reductions, bit for bit. Anything else is a
// caller bug and panics.
func TestMulVecDotAbsTilesComposeBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, n := range []int{1, 127, 128, 129, 1000, 4097} {
		a := adversarialCSR(rng, n, n)
		x := make([]float64, n)
		three := [][]float64{make([]float64, n), make([]float64, n), make([]float64, n)}
		for i := range x {
			x[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
			for _, r := range three {
				r[i] = rng.NormFloat64()
			}
		}
		want := make([]float64, n)
		a.MulVec(want, x)
		nb := vec.Blocks(n)
		for trial := 0; trial < 10; trial++ {
			rows := three[:1+2*(trial%2)] // one weight row, then three
			lv := vec.NewLeaves(len(rows), n)
			cuts := randomPartition(rng, nb, 1+rng.Intn(5))
			got := make([]float64, n)
			for _, t := range rng.Perm(len(cuts) - 1) {
				a.MulVecDotAbs(got, x, rows, lv, cuts[t]*vec.Block, min(cuts[t+1]*vec.Block, n))
			}
			lv.Fold()
			if i, ok := bitsEqual(got, want); !ok {
				t.Fatalf("n=%d cuts %v: row %d = %x, MulVec %x", n, cuts, i, got[i], want[i])
			}
			for j, r := range rows {
				ws, wa := vec.DotAbs(r, x)
				if math.Float64bits(lv.Sum[j]) != math.Float64bits(ws) || math.Float64bits(lv.Abs[j]) != math.Float64bits(wa) {
					t.Fatalf("n=%d cuts %v row %d: reductions (%x, %x), DotAbs (%x, %x)", n, cuts, j, lv.Sum[j], lv.Abs[j], ws, wa)
				}
			}
		}
	}
	a := Tridiag(300, -1, 2, -1)
	x, y := make([]float64, 300), make([]float64, 300)
	lv := vec.NewLeaves(1, 300)
	rows := [][]float64{x}
	for name, f := range map[string]func(){
		"unaligned lo": func() { a.MulVecDotAbs(y, x, rows, lv, 64, 300) },
		"unaligned hi": func() { a.MulVecDotAbs(y, x, rows, lv, 0, 200) },
		"not square":   func() { adversarialCSR(rng, 128, 256).MulVecDotAbs(y[:128], make([]float64, 256), rows, lv, 0, 128) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}
