package sparse

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"newsum/internal/vec"
)

// The row plan promises the row loop's bits: every test here multiplies by
// a plan-less view of the same arrays — MulVecRows' row loop, the reference
// — and compares IEEE-754 patterns.

// planless is a's arrays as a literal: no plan, so the row loop.
func planless(a *CSR) *CSR {
	return &CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
}

// lengthsCSR builds a rows×cols matrix whose row i holds lengthOf(i) entries
// at random distinct columns, with magnitudes spread over sixty binades.
func lengthsCSR(rng *rand.Rand, rows, cols int, lengthOf func(i int) int) *CSR {
	c := NewCOO(rows, cols)
	for i := 0; i < rows; i++ {
		for _, j := range rng.Perm(cols)[:min(lengthOf(i), cols)] {
			c.Add(i, j, rng.NormFloat64()*math.Exp2(float64(rng.Intn(60)-30)))
		}
	}
	return c.ToCSR()
}

// hostileVec is a vector of mixed magnitudes salted with the values that
// expose a reordered or regrouped sum: ±Inf, NaN, −0 and subnormals.
func hostileVec(rng *rand.Rand, n int) []float64 {
	special := []float64{math.Inf(1), math.Inf(-1), math.NaN(), math.Copysign(0, -1), 5e-324, -3e-310}
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
		if rng.Intn(16) == 0 {
			x[i] = special[rng.Intn(len(special))]
		}
	}
	return x
}

// sameBits is bitsEqual that takes any two NaNs for equal. When a row adds
// two NaNs of different payload or sign (x's NaN, and the one Inf − Inf or
// 0·Inf makes), which of them the sum keeps is decided by which operand of
// the add the compiler made the destination — not by the order of the sum.
func sameBits(a, b []float64) (int, bool) {
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return i, false
		}
	}
	return -1, true
}

// checkRowPlan holds a's planned product to the row loop's: whole, and over
// ranges aligned at neither end, either and both, written into a rank-local
// slice (par.DistMatrix's shape) and in place. It checks the plan's
// structure on the way.
func checkRowPlan(t *testing.T, rng *rand.Rand, name string, a *CSR) {
	t.Helper()
	if err := a.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkPlanStructure(t, name, a)
	ref := planless(a)
	for _, x := range [][]float64{hostileVec(rng, a.Cols), make([]float64, a.Cols)} {
		want := make([]float64, a.Rows)
		ref.MulVecRows(want, x, 0, a.Rows)
		got := make([]float64, a.Rows)
		a.MulVec(got, x)
		if i, ok := sameBits(got, want); !ok {
			t.Fatalf("%s: MulVec row %d = %x, row loop %x", name, i, got[i], want[i])
		}
		for trial := 0; trial < 12; trial++ {
			lo, hi := rng.Intn(a.Rows+1), rng.Intn(a.Rows+1)
			if lo > hi {
				lo, hi = hi, lo
			}
			switch trial % 4 { // aligned at: neither end, lo, hi, both
			case 1:
				lo = lo / vec.Block * vec.Block
			case 2:
				hi = hi / vec.Block * vec.Block
			case 3:
				lo, hi = lo/vec.Block*vec.Block, hi/vec.Block*vec.Block
			}
			if lo > hi {
				lo = hi
			}
			local := make([]float64, hi-lo)
			a.MulVecRows(local, x, lo, hi)
			if i, ok := sameBits(local, want[lo:hi]); !ok {
				t.Fatalf("%s rows [%d, %d): local row %d = %x, row loop %x", name, lo, hi, i, local[i], want[lo+i])
			}
			inPlace := make([]float64, a.Rows)
			a.MulVecRange(inPlace, x, lo, hi)
			if i, ok := sameBits(inPlace[lo:hi], want[lo:hi]); !ok {
				t.Fatalf("%s MulVecRange [%d, %d): row %d = %x, row loop %x", name, lo, hi, lo+i, inPlace[lo+i], want[lo+i])
			}
		}
	}
}

// selectionRowPlan is newRowPlan as it was before it counted: a selection
// sort on the few lengths a window holds, each pass emitting, in row order,
// the rows of the shortest length not yet emitted. It is kept as the oracle
// the counting plan must reproduce.
func selectionRowPlan(rowPtr []int, nnz int) *rowPlan {
	nw := (len(rowPtr) - 1) / vec.Block
	if nw == 0 || len(rowPtr)+nnz > math.MaxInt32 {
		return nil
	}
	p := &rowPlan{order: make([]uint8, nw*vec.Block), runs: make([]rowRun, 0, 4*nw), first: make([]int32, nw+1)}
	for w := 0; w < nw; w++ {
		ptr := rowPtr[w*vec.Block:][:vec.Block+1]
		order := p.order[w*vec.Block:][:0]
		for last := -1; len(order) < vec.Block; {
			length := math.MaxInt
			for i := 0; i < vec.Block; i++ {
				if l := ptr[i+1] - ptr[i]; l > last && l < length {
					length = l
				}
			}
			done := len(order)
			for i := 0; i < vec.Block; i++ {
				if ptr[i+1]-ptr[i] == length {
					order = append(order, uint8(i))
				}
			}
			p.runs = append(p.runs, rowRun{int32(length), int32(len(order) - done)})
			last = length
		}
		p.first[w+1] = int32(len(p.runs))
	}
	return p
}

// checkPlanStructure: the plan is the selection-sort oracle's, byte for
// byte — so on every generator, every CSR derived from one, and every
// FuzzRowPlan seed, all of which come through here — and, checked on its
// own, each window's runs are a permutation of its rows, every run under
// its rows' common length, rows ascending within a length.
func checkPlanStructure(t *testing.T, name string, a *CSR) {
	t.Helper()
	p := a.plan
	if a.Rows < vec.Block {
		if p != nil {
			t.Fatalf("%s: %d rows have a plan", name, a.Rows)
		}
		return
	}
	if p == nil {
		t.Fatalf("%s: no plan", name)
	}
	if want := selectionRowPlan(a.RowPtr, len(a.Val)); !slices.Equal(p.order, want.order) ||
		!slices.Equal(p.runs, want.runs) || !slices.Equal(p.first, want.first) {
		t.Fatalf("%s: the counted plan is not the selection sort's", name)
	}
	for w := 0; w < a.Rows/vec.Block; w++ {
		seen := map[int]bool{}
		lastOf := map[int]int{} // length → last row listed under it
		at := w * vec.Block
		for _, r := range p.runs[p.first[w]:p.first[w+1]] {
			if r.rows < 1 {
				t.Fatalf("%s window %d: empty run", name, w)
			}
			for _, o := range p.order[at : at+int(r.rows)] {
				i := w*vec.Block + int(o)
				if seen[i] {
					t.Fatalf("%s window %d: row %d listed twice", name, w, i)
				}
				seen[i] = true
				if l := a.RowPtr[i+1] - a.RowPtr[i]; l != int(r.length) {
					t.Fatalf("%s window %d: row %d of %d entries in a run of %d", name, w, i, l, r.length)
				}
				if last, ok := lastOf[int(r.length)]; ok && last >= i {
					t.Fatalf("%s window %d: rows of %d entries out of order (%d after %d)", name, w, r.length, i, last)
				}
				lastOf[int(r.length)] = i
			}
			at += int(r.rows)
		}
		if len(seen) != vec.Block {
			t.Fatalf("%s window %d: %d of %d rows listed", name, w, len(seen), vec.Block)
		}
	}
}

func TestRowPlanMatchesRowLoopBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	type named struct {
		name string
		a    *CSR
	}
	for _, g := range []named{
		{"Laplacian2D", Laplacian2D(37, 23)},
		{"Laplacian3D", Laplacian3D(9, 8, 7)},
		{"CircuitLike", CircuitLike(10000, 5)},
		{"ConvectionDiffusion2D", ConvectionDiffusion2D(31, 17, 0.5)},
		{"DiagDominant", DiagDominant(700, 8, 3)},
		{"SPDRandom", SPDRandom(900, 6, 4)},
		{"Tridiag", Tridiag(513, -1, 2, -1)},
		{"Identity", Identity(300)},
	} {
		a := g.a
		checkRowPlan(t, rng, g.name, a)
		// Everything else in the package that hands out a CSR plans it too.
		l, u := a.BlockTriangles(0, a.Rows, 1)
		bl, bu := a.BlockTriangles(3, a.Rows-2, 3)
		for _, d := range []named{
			{"Transpose", a.Transpose()}, {"Clone", a.Clone()},
			{"BlockTriangles lower", l}, {"BlockTriangles upper", u},
			{"BlockTriangles shifted lower", bl}, {"BlockTriangles shifted upper", bu},
		} {
			checkRowPlan(t, rng, g.name+"."+d.name, d.a)
		}
	}
	// Random patterns: lengths 0–12, so empty rows and rows longer than the
	// longest unrolled body, at the sizes that straddle a window.
	for _, n := range []int{0, 1, 127, 128, 129, 257, 10000} {
		cols := max(n, 40)
		a := lengthsCSR(rng, n, cols, func(int) int { return rng.Intn(13) })
		checkRowPlan(t, rng, "random", a)
	}
	// One window whose rows all share a length (with a body, then without),
	// one where every row differs, one of empty rows, one with a row longer
	// than the plan's stack scratch covers, one that mixes empty rows with
	// long ones over the same span, in the heap scratch the one before left,
	// and a ragged tail.
	a := lengthsCSR(rng, 6*vec.Block+77, 200, func(i int) int {
		switch i / vec.Block {
		case 0:
			return 5
		case 1:
			return 11
		case 2:
			return i % vec.Block
		case 3:
			return 0
		case 4:
			if i%vec.Block == 64 {
				return planSpan + 44
			}
			return 3
		case 5:
			if i%2 == 0 {
				return 0
			}
			return planSpan + 35 + i%7
		}
		return 1 + i%3
	})
	checkRowPlan(t, rng, "windows", a)
	if runs := a.plan.first[1:]; runs[0] != 1 || runs[1] != 2 || runs[2] != 2+vec.Block || runs[3] != 3+vec.Block ||
		runs[4] != 5+vec.Block || runs[5] != 13+vec.Block {
		t.Fatalf("windows: run boundaries %v, want one run, one run, %d runs, one run, two runs, eight runs", runs, vec.Block)
	}
	// A rectangular operator: windows are of rows, whatever the columns.
	checkRowPlan(t, rng, "wide", lengthsCSR(rng, 300, 50, func(int) int { return 3 + rng.Intn(6) }))
	checkRowPlan(t, rng, "tall", adversarialCSR(rng, 1000, 7))
}

// TestRowPlanStaleIsReportedAndMemorySafe: the pattern is immutable, and a
// caller who edits RowPtr under a plan anyway gets Validate's report and a
// product that panics or multiplies in-bounds neighbours — never a read
// outside ColIdx/Val.
func TestRowPlanStaleIsReportedAndMemorySafe(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	c := NewCOO(2*vec.Block, 64)
	for i := 0; i < 2*vec.Block; i++ {
		for k := 0; k < 4; k++ { // row i+1 starts right of where row i ends, 15 times in 16
			c.Add(i, 4*(i%16)+k, rng.NormFloat64())
		}
	}
	a := c.ToCSR()
	x := hostileVec(rng, a.Cols)
	y := make([]float64, a.Rows)

	// One row grows at its neighbour's expense: still a valid CSR, no
	// longer the plan's.
	shifted := a.Clone()
	shifted.RowPtr[10]++
	if err := shifted.Validate(); err == nil || !strings.Contains(err.Error(), "row plan") {
		t.Fatalf("stale plan not reported: %v", err)
	}
	shifted.MulVec(y, x) // reads rows 9 and 10 one entry off; in bounds

	// The last row is cut short of what the plan holds it to, at the very
	// end of the arrays, where a longer read would leave them.
	short := a.Clone()
	nnz := len(short.Val)
	short.RowPtr[short.Rows] = nnz - 2
	short.ColIdx, short.Val = short.ColIdx[:nnz-2:nnz-2], short.Val[:nnz-2:nnz-2]
	if err := short.Validate(); err == nil {
		t.Fatal("truncated last row under a plan not reported")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("planned product read past the end of a truncated row without panicking")
			}
		}()
		short.MulVec(y, x)
	}()

	if err := a.Validate(); err != nil {
		t.Fatalf("clones share the plan, not the pattern: %v", err)
	}
}

// FuzzRowPlan draws 1–400 rows from the pattern bytes — a byte below 0xf0
// is a row of its value mod 13 entries, one from 0xf0 up a row of
// planSpan + 8·(byte − 0xf0), longer than the plan's stack scratch covers,
// so a window can mix empty rows with long ones — and a row range from lo
// and hi, and holds the planned product over it to the row loop. Seeds
// live in testdata/fuzz/FuzzRowPlan.
func FuzzRowPlan(f *testing.F) {
	f.Fuzz(func(t *testing.T, pattern []byte, seed int64, rows, lo, hi uint16) {
		if len(pattern) == 0 {
			pattern = []byte{0}
		}
		length := func(b byte) int {
			if b >= 0xf0 {
				return planSpan + 8*int(b-0xf0)
			}
			return int(b) % 13
		}
		cols := 60
		for _, b := range pattern {
			cols = max(cols, length(b))
		}
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(rows)%400
		a := lengthsCSR(rng, n, cols, func(i int) int { return length(pattern[i%len(pattern)]) })
		if err := a.Validate(); err != nil {
			t.Fatal(err)
		}
		checkPlanStructure(t, "fuzz", a)
		x := hostileVec(rng, a.Cols)
		want := make([]float64, n)
		planless(a).MulVecRows(want, x, 0, n)
		from, to := int(lo)%(n+1), int(hi)%(n+1)
		if from > to {
			from, to = to, from
		}
		got := make([]float64, to-from)
		a.MulVecRows(got, x, from, to)
		if i, ok := sameBits(got, want[from:to]); !ok {
			t.Fatalf("rows [%d, %d) of %d: row %d = %x, row loop %x", from, to, n, from+i, got[i], want[from+i])
		}
	})
}
