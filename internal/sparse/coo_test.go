package sparse

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// toCSRBySortSlice is ToCSR as it was before the counting sort: one
// comparison sort of an index permutation over all entries, then a merge.
// It is kept as the reference the linear-time conversion must reproduce.
func (c *COO) toCSRBySortSlice() *CSR {
	order := make([]int, len(c.v))
	for k := range order {
		order[k] = k
	}
	sort.Slice(order, func(a, b int) bool {
		ka, kb := order[a], order[b]
		if c.i[ka] != c.i[kb] {
			return c.i[ka] < c.i[kb]
		}
		return c.j[ka] < c.j[kb]
	})
	a := &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1)}
	prevI, prevJ := -1, -1
	for _, k := range order {
		i, j, v := c.i[k], c.j[k], c.v[k]
		if i == prevI && j == prevJ {
			a.Val[len(a.Val)-1] += v
			continue
		}
		a.ColIdx = append(a.ColIdx, j)
		a.Val = append(a.Val, v)
		a.RowPtr[i+1]++
		prevI, prevJ = i, j
	}
	for i := 0; i < c.rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// cooOf rebuilds the builder a matrix came from, entry by entry in storage
// order, then shuffles it: the conversion may not depend on arrival order
// beyond the order of duplicates.
func cooOf(a *CSR, rng *rand.Rand) *COO {
	c := NewCOO(a.Rows, a.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := a.RowPtr[i]; k < a.RowPtr[i+1]; k++ {
			c.Add(i, a.ColIdx[k], a.Val[k])
		}
	}
	rng.Shuffle(len(c.v), func(p, q int) {
		c.i[p], c.i[q] = c.i[q], c.i[p]
		c.j[p], c.j[q] = c.j[q], c.j[p]
		c.v[p], c.v[q] = c.v[q], c.v[p]
	})
	return c
}

func requireSameCSR(t *testing.T, what string, got, want *CSR) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if got.Rows != want.Rows || got.Cols != want.Cols || len(got.Val) != len(want.Val) {
		t.Fatalf("%s: %dx%d nnz %d, reference %dx%d nnz %d", what, got.Rows, got.Cols, len(got.Val), want.Rows, want.Cols, len(want.Val))
	}
	for i := range want.RowPtr {
		if got.RowPtr[i] != want.RowPtr[i] {
			t.Fatalf("%s: RowPtr[%d] = %d, reference %d", what, i, got.RowPtr[i], want.RowPtr[i])
		}
	}
	for k := range want.Val {
		if got.ColIdx[k] != want.ColIdx[k] || math.Float64bits(got.Val[k]) != math.Float64bits(want.Val[k]) {
			t.Fatalf("%s: entry %d = (%d, %x), reference (%d, %x)", what, k, got.ColIdx[k], got.Val[k], want.ColIdx[k], want.Val[k])
		}
	}
}

// TestToCSRMatchesSortSlice: the counting-sort conversion is bit-identical
// to the comparison-sort one it replaced — on shuffled copies of every
// generator's output, on block-Jacobi's block-diagonal assembly of each,
// and on random input with duplicate coordinates, long rows and empty rows.
// (The generators' own Add sequences, duplicates included, are covered by
// TestGeneratorBitsPinned.)
func TestToCSRMatchesSortSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	gens := map[string]*CSR{
		"laplacian2d":   Laplacian2D(23, 17),
		"laplacian3d":   Laplacian3D(7, 8, 9),
		"circuit":       CircuitLike(3000, 20160531),
		"convdiff":      ConvectionDiffusion2D(31, 29, 20),
		"diagdominant":  DiagDominant(700, 6, 5),
		"spdrandom":     SPDRandom(900, 4, 9),
		"spdrandom-sml": SPDRandom(40, 6, 3),
		"tridiag":       Tridiag(513, -1, 2, -1),
		"identity":      Identity(300),
	}
	for name, a := range gens {
		c := cooOf(a, rng)
		requireSameCSR(t, name, c.ToCSR(), c.toCSRBySortSlice())
		requireSameCSR(t, name+" round trip", c.ToCSR(), a)

		// Block-Jacobi's assembly: the block-diagonal restriction, added
		// block by block.
		const nblocks = 16
		bd := NewCOO(a.Rows, a.Cols)
		for b := 0; b < nblocks; b++ {
			lo, hi := b*a.Rows/nblocks, (b+1)*a.Rows/nblocks
			for i := lo; i < hi; i++ {
				cols, vals := a.RowView(i)
				for k, j := range cols {
					if j >= lo && j < hi {
						bd.Add(i, j, vals[k])
					}
				}
			}
		}
		requireSameCSR(t, name+" block diagonal", bd.ToCSR(), bd.toCSRBySortSlice())
	}

	// Random input. A coordinate added twice sums commutatively, so any
	// sort agrees bit for bit; one added more often is summed in arrival
	// order now and was summed in whatever order the unstable sort left, so
	// its values are dyadic with a short mantissa — exact in any order.
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(60), 1+rng.Intn(60)
		c := NewCOO(rows, cols)
		for k := rng.Intn(1500); k > 0; k-- {
			i, j := rng.Intn(rows), rng.Intn(cols)
			if i%5 == 4 {
				continue // empty rows
			}
			c.Add(i, j, float64(rng.Intn(1<<20)-1<<19)/1024)
		}
		requireSameCSR(t, "random dyadic", c.ToCSR(), c.toCSRBySortSlice())
	}
	for trial := 0; trial < 20; trial++ {
		n := 200 + rng.Intn(200)
		c := NewCOO(n, n)
		seen := map[[2]int]int{}
		for k := 0; k < 6*n; k++ {
			i, j := rng.Intn(n), rng.Intn(n)
			if i == 7 {
				j = rng.Intn(n) // row 7 runs long: the sort.Stable path
				i = 7
			} else if k%3 == 0 {
				i = 7
			}
			if seen[[2]int{i, j}] == 2 {
				continue
			}
			seen[[2]int{i, j}]++
			c.Add(i, j, rng.NormFloat64()*math.Exp2(float64(rng.Intn(60)-30)))
		}
		requireSameCSR(t, "random pairs", c.ToCSR(), c.toCSRBySortSlice())
	}
}

// fingerprint folds a matrix — shape, structure and value bits — into one
// FNV-1a word.
func fingerprint(a *CSR) uint64 {
	h := uint64(14695981039346656037)
	mix := func(x uint64) {
		for s := 0; s < 64; s += 8 {
			h ^= (x >> s) & 0xff
			h *= 1099511628211
		}
	}
	mix(uint64(a.Rows))
	mix(uint64(a.Cols))
	for _, p := range a.RowPtr {
		mix(uint64(p))
	}
	for _, j := range a.ColIdx {
		mix(uint64(j))
	}
	for _, v := range a.Val {
		mix(math.Float64bits(v))
	}
	return h
}

// TestGeneratorBitsPinned: every generator in gen.go assembles through a
// COO builder — SPDRandom and CircuitLike with duplicate coordinates — and
// the iteration counts pinned in benchmark/pinned.json and the golden
// traces hang off the exact bits that come out. The fingerprints below were
// recorded with the comparison-sort ToCSR (commit 450e88e); the conversion,
// or a generator, may only change them deliberately.
func TestGeneratorBitsPinned(t *testing.T) {
	for _, g := range []struct {
		name string
		a    *CSR
		want uint64
	}{
		{"Laplacian2D(150,150)", Laplacian2D(150, 150), 0xf84fb0068432a57a},
		{"Laplacian3D(12,13,14)", Laplacian3D(12, 13, 14), 0xd61b509ba977cdf9},
		{"CircuitLike(10000,20160531)", CircuitLike(10000, 20160531), 0xd699e64de083eccf},
		{"CircuitLike(2000,7)", CircuitLike(2000, 7), 0x96a1d101bb75bfac},
		{"ConvectionDiffusion2D(150,150,20)", ConvectionDiffusion2D(150, 150, 20), 0x1b1cf75ab2bdd38e},
		{"DiagDominant(3000,6,5)", DiagDominant(3000, 6, 5), 0xcd647d0cb8600468},
		{"SPDRandom(4000,4,9)", SPDRandom(4000, 4, 9), 0x901f1b0fa069a445},
		{"SPDRandom(60,8,3)", SPDRandom(60, 8, 3), 0x25f463907209d044},
		{"Tridiag(513,-1,2,-1)", Tridiag(513, -1, 2, -1), 0xb95d6a8cf4cf064c},
		{"Identity(300)", Identity(300), 0x38f7ff2e1290e31e},
	} {
		if got := fingerprint(g.a); got != g.want {
			t.Errorf("%s: fingerprint %#x, pinned %#x", g.name, got, g.want)
		}
	}
}

// TestGrowReservesOnce: after Grow(k) the next k entries land in the arrays
// Grow made, and the entries added before it are still there, in order.
func TestGrowReservesOnce(t *testing.T) {
	c := NewCOO(50, 50)
	c.Add(3, 4, 1.5)
	c.Add(3, 4, 2.5) // a duplicate, summed in insertion order by ToCSR
	c.Grow(40)
	first := &c.v[:1][0]
	for k := 0; k < 40; k++ {
		c.Add(k, (k*7)%50, float64(k))
	}
	if &c.v[0] != first || cap(c.i) != cap(c.v) || cap(c.j) != cap(c.v) {
		t.Fatalf("40 entries after Grow(40) moved the arrays (caps %d %d %d)", cap(c.i), cap(c.j), cap(c.v))
	}
	c.Grow(0)
	c.Grow(1) // no room left: one more array each, entries kept
	if len(c.v) != 42 {
		t.Fatalf("%d entries after Grow, want 42", len(c.v))
	}
	want := NewCOO(50, 50)
	want.Add(3, 4, 1.5)
	want.Add(3, 4, 2.5)
	for k := 0; k < 40; k++ {
		want.Add(k, (k*7)%50, float64(k))
	}
	if fingerprint(c.ToCSR()) != fingerprint(want.ToCSR()) {
		t.Fatalf("a reserved builder converts to a different CSR")
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("Grow(-1) did not panic")
		}
	}()
	c.Grow(-1)
}

// TestStencilReservationsAreExact: the stencil generators reserve exactly
// the entries they add — none is a duplicate, so that is the CSR's count.
func TestStencilReservationsAreExact(t *testing.T) {
	for _, g := range []struct {
		name     string
		a        *CSR
		reserved int
	}{
		{"Laplacian2D(7,11)", Laplacian2D(7, 11), 5*77 - 2*7 - 2*11},
		{"Laplacian2D(1,1)", Laplacian2D(1, 1), 1},
		{"Laplacian3D(3,4,5)", Laplacian3D(3, 4, 5), 7*60 - 2*(12+20+15)},
		{"ConvectionDiffusion2D(9,5,20)", ConvectionDiffusion2D(9, 5, 20), 5*45 - 2*9 - 2*5},
		{"Tridiag(1,-1,2,-1)", Tridiag(1, -1, 2, -1), 1},
		{"Tridiag(17,-1,2,-1)", Tridiag(17, -1, 2, -1), 49},
	} {
		if g.a.NNZ() != g.reserved {
			t.Errorf("%s: %d entries, the generator reserves %d", g.name, g.a.NNZ(), g.reserved)
		}
	}
}
