package sparse

import (
	"cmp"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"testing"
	"unsafe"
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
		i, j, v := int(c.i[k]), int(c.j[k]), c.v[k]
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

// toCSRByArrival is ToCSR by its definition, the oracle for summation
// order: a coordinate's entry is its first value with each later one added
// in the order they arrived, and rows list their coordinates by column.
func (c *COO) toCSRByArrival() *CSR {
	sums := map[[2]int]float64{}
	var keys [][2]int
	for k, v := range c.v {
		key := [2]int{int(c.i[k]), int(c.j[k])}
		if s, ok := sums[key]; ok {
			sums[key] = s + v
			continue
		}
		sums[key] = v
		keys = append(keys, key)
	}
	slices.SortFunc(keys, func(p, q [2]int) int { return cmp.Or(cmp.Compare(p[0], q[0]), cmp.Compare(p[1], q[1])) })
	a := &CSR{Rows: c.rows, Cols: c.cols, RowPtr: make([]int, c.rows+1)}
	for _, key := range keys {
		a.RowPtr[key[0]+1]++
		a.ColIdx = append(a.ColIdx, key[1])
		a.Val = append(a.Val, sums[key])
	}
	for i := 0; i < c.rows; i++ {
		a.RowPtr[i+1] += a.RowPtr[i]
	}
	return a
}

// clone copies the builder, for a test that converts the same entries
// more than once: ToCSR consumes its builder.
func (c *COO) clone() *COO {
	return &COO{rows: c.rows, cols: c.cols, i: slices.Clone(c.i), j: slices.Clone(c.j), v: slices.Clone(c.v)}
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
// and on random input with duplicate coordinates, long rows and empty rows
// — and its two value placements, the scatter and the cycle walk, agree
// bit for bit on each, so both are held to the reference on every host.
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
		requireSameCSR(t, name, c.clone().ToCSR(), c.toCSRBySortSlice())
		requireSameCSR(t, name+" by cycles", c.clone().toCSRByCycles(), c.toCSRBySortSlice())
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
		requireSameCSR(t, name+" block diagonal", bd.clone().ToCSR(), bd.toCSRBySortSlice())
		requireSameCSR(t, name+" block diagonal by cycles", bd.clone().toCSRByCycles(), bd.toCSRBySortSlice())
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
		requireSameCSR(t, "random dyadic", c.clone().ToCSR(), c.toCSRBySortSlice())
		requireSameCSR(t, "random dyadic by cycles", c.clone().toCSRByCycles(), c.toCSRBySortSlice())
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
		requireSameCSR(t, "random pairs", c.clone().ToCSR(), c.toCSRBySortSlice())
		requireSameCSR(t, "random pairs by cycles", c.clone().toCSRByCycles(), c.toCSRBySortSlice())
	}
}

// TestToCSRSumsRepeatsInArrivalOrder: a coordinate added up to eight
// times, with values whose sum rounds differently in another order, is
// summed in the order its entries were added, on short rows and on rows
// far longer than a window. The entries are shuffled after they are drawn,
// so a coordinate's repeats arrive among other coordinates' entries.
func TestToCSRSumsRepeatsInArrivalOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 20; trial++ {
		rows, cols := 1+rng.Intn(200), 1+rng.Intn(400)
		c := NewCOO(rows, cols)
		added := map[[2]int]int{}
		for k := 300 + rng.Intn(3000); k > 0; k-- {
			i, j := rng.Intn(rows), rng.Intn(cols)
			if k%3 == 0 {
				i = rows / 2 // one long row, hundreds of columns
			}
			for r := 1 + rng.Intn(8); r > 0 && added[[2]int{i, j}] < 8; r-- {
				added[[2]int{i, j}]++
				c.Add(i, j, rng.NormFloat64()*math.Exp2(float64(rng.Intn(40)-20)))
			}
		}
		rng.Shuffle(len(c.v), func(p, q int) {
			c.i[p], c.i[q] = c.i[q], c.i[p]
			c.j[p], c.j[q] = c.j[q], c.j[p]
			c.v[p], c.v[q] = c.v[q], c.v[p]
		})
		want := c.toCSRByArrival()
		requireSameCSR(t, "repeats", c.clone().ToCSR(), want)

		// The oracle has teeth: the same entries added in reverse sum to
		// other bits somewhere.
		rev := NewCOO(rows, cols)
		for k := len(c.v) - 1; k >= 0; k-- {
			rev.Add(int(c.i[k]), int(c.j[k]), c.v[k])
		}
		differs := false
		for k, v := range rev.toCSRByArrival().Val {
			differs = differs || math.Float64bits(v) != math.Float64bits(want.Val[k])
		}
		if !differs {
			t.Fatalf("trial %d: no coordinate's sum depends on its order", trial)
		}
	}
}

// fuzzValues are FuzzToCSR's entries: dyadic values with short mantissas
// over a short range of binades, which sum exactly in any order, first
// (explicit zeros and -0 among them), then values that round.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, -2.25, 3, 1024, -0.125, 6.75, -96, 0.375,
	0.1, -0.7, 1.0 / 3, -2.0 / 3, math.Pi, -math.E, 1e-3, 1e300, -1e-310, 12345.678,
}

const fuzzDyadic = 12 // fuzzValues[:fuzzDyadic] sum exactly in any order

// FuzzToCSR decodes a rows×cols builder of at most 64×64 from the bytes —
// a triplet is three: row, column and an index into fuzzValues, so small
// dimensions repeat coordinates — and holds ToCSR to both references bit
// for bit and to Validate, and to its consuming contract: the builder is
// left empty, ColIdx has room for every entry and RowPtr for every row,
// and Val is the builder's value array itself unless that holds no entry
// or more than an eighth of it lies past the CSR's entries — append's
// growth or summed repeats — when it is a copy of exactly the entries. The
// builder grows by append, so seeds take both branches: append-exact-keep's
// eight entries fill their array, append-slack-copy's nine leave seven of
// sixteen slots empty and are copied. A coordinate added three times or
// more takes dyadic values: the comparison-sort reference's unstable sort
// does not keep arrival order, so only an exact sum is the same whatever
// order its entries take. The cycle walk (toCSRByCycles, the placement
// where int holds 32 bits) converts a clone of its own and must give the
// same CSR and row plan to the bit. Seeds live in testdata/fuzz/FuzzToCSR.
func FuzzToCSR(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows, cols uint8, triplets []byte) {
		m, n := int(rows)%65, int(cols)%65
		c := NewCOO(m, n)
		if m > 0 && n > 0 {
			added := map[[2]int]int{}
			for p := 0; p+3 <= len(triplets); p += 3 {
				added[[2]int{int(triplets[p]) % m, int(triplets[p+1]) % n}]++
			}
			for p := 0; p+3 <= len(triplets); p += 3 {
				i, j, v := int(triplets[p])%m, int(triplets[p+1])%n, int(triplets[p+2])%len(fuzzValues)
				if added[[2]int{i, j}] >= 3 {
					v %= fuzzDyadic
				}
				c.Add(i, j, fuzzValues[v])
			}
		}
		orig, cycled, vals := c.clone(), c.clone(), c.v
		got := c.ToCSR()
		requireSameCSR(t, "sort reference", got, orig.toCSRBySortSlice())
		requireSameCSR(t, "arrival order", got, orig.toCSRByArrival())
		requireSamePlan(t, "cycle walk", cycled.toCSRByCycles(), got)
		if c.i != nil || c.j != nil || c.v != nil {
			t.Fatalf("ToCSR left %d, %d, %d entries in its builder, want it emptied", len(c.i), len(c.j), len(c.v))
		}
		w, n := got.NNZ(), len(orig.v)
		copied := w == 0 || cap(vals)-w > w/8
		wantVal := cap(vals)
		if copied {
			wantVal = w
		}
		if cap(got.ColIdx) != n || cap(got.Val) != wantVal || cap(got.RowPtr) != m+1 {
			t.Fatalf("capacities %d, %d, %d; want %d, %d, %d", cap(got.ColIdx), cap(got.Val), cap(got.RowPtr), n, wantVal, m+1)
		}
		if got.Val == nil {
			t.Fatal("Val is nil, want empty")
		}
		if w > 0 && (&got.Val[0] == &vals[0]) == copied {
			t.Fatalf("Val aliases the builder's value array: %v; the slack rule (cap %d, %d entries) wants %v", !copied, cap(vals), w, !copied)
		}
	})
}

// heapUse returns the bytes and the objects f allocates. The collector
// must be off.
func heapUse(f func()) (bytes, mallocs uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestToCSRAllocatesOnlyTheCSR: ToCSR converts inside its builder, so what
// it allocates is the CSR — the struct, RowPtr, ColIdx and the row plan —
// and the column counts, and nothing else of the entries' length: the
// bytes beyond those are size-class rounding, under half the four an entry
// of the smallest array that could hold a permutation. A builder whose
// value array has more than an eighth of slack allocates one array more,
// Val's copy. The collector is off while it measures.
func TestToCSRAllocatesOnlyTheCSR(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const rows, cols, n = 5000, 4000, 40000
	rng := rand.New(rand.NewSource(3))
	exact := NewCOO(rows, cols)
	exact.Grow(n)
	for k := 0; k < n; k++ {
		exact.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	half := NewCOO(rows, cols)
	half.Grow(n)
	for k := 0; k < n/2; k++ {
		half.Add(rng.Intn(rows), rng.Intn(cols), rng.NormFloat64())
	}
	for _, c := range []struct {
		name   string
		c      *COO
		copies bool
	}{{"reserved exactly", exact, false}, {"half the reservation", half, true}} {
		entries := len(c.c.v)
		var a *CSR
		bytes, mallocs := heapUse(func() { a = c.c.ToCSR() })
		planBytes, planMallocs := heapUse(func() { newRowPlan(a.RowPtr, a.NNZ()) })
		want := planBytes + uint64(unsafe.Sizeof(CSR{})) + 8*rows + 8 + 8*uint64(entries) + 4*cols + 4
		wantMallocs := planMallocs + 4
		if c.copies {
			want += 8 * uint64(a.NNZ())
			wantMallocs++
		}
		if mallocs != wantMallocs || bytes < want || bytes-want >= 2*uint64(entries) {
			t.Errorf("%s: %d bytes in %d allocations; want %d (+ rounding, under %d) in %d",
				c.name, bytes, mallocs, want, 2*entries, wantMallocs)
		}
		if copied := cap(a.Val) == a.NNZ(); copied != c.copies {
			t.Errorf("%s: Val copied %v, want %v", c.name, copied, c.copies)
		}
	}
}

// TestNewCOORejectsWideDimensions: a coordinate is an int32, so NewCOO
// refuses a dimension it cannot hold.
func TestNewCOORejectsWideDimensions(t *testing.T) {
	dims := [][2]int{{-1, 3}, {3, -1}}
	if wideInt { // where int holds 32 bits, no int is above MaxInt32
		over := int64(math.MaxInt32) + 1
		dims = append(dims, [2]int{int(over), 1}, [2]int{1, int(over)})
	}
	for _, d := range dims {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewCOO(%d, %d) did not panic", d[0], d[1])
				}
			}()
			NewCOO(d[0], d[1])
		}()
	}
	NewCOO(math.MaxInt32, math.MaxInt32) // the widest allowed: nothing allocated per row
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
