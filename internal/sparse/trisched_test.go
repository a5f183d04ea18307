package sparse

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"newsum/internal/vec"
)

// The scheduled triangular solve promises the reference loops' bits: every
// test here runs CSR.SolveLower / SolveUpper beside TriSchedule on the same
// factor and compares IEEE-754 patterns, never magnitudes.

// triShape names the three solve shapes.
type triShape struct {
	name        string
	upper, unit bool
}

var triShapes = []triShape{
	{"lowerunit", false, true},
	{"lower", false, false},
	{"upper", true, false},
}

// reference runs the loop the shape's schedule must reproduce.
func (s triShape) reference(m *CSR, x, b []float64) error {
	if s.upper {
		return m.SolveUpper(x, b)
	}
	return m.SolveLower(x, b, s.unit)
}

// blockTriangle draws a triangular factor whose strict triangle couples
// rows only within the consecutive diagonal blocks of the given sizes, so
// the block structure the schedule should find is known. Every row is
// diagonally dominant (the solution stays finite however long the chain)
// with entries spread over twenty binades. empty is the fraction of rows left with no strict entry; with
// wrongSide, rows also carry entries across the diagonal — inside and
// outside their block — that every solve must ignore.
func blockTriangle(rng *rand.Rand, sizes []int, upper bool, empty float64, wrongSide bool) *CSR {
	n := 0
	for _, s := range sizes {
		n += s
	}
	val := func() float64 { return rng.NormFloat64() * math.Exp2(float64(-3-rng.Intn(20))) }
	c := NewCOO(n, n)
	lo := 0
	for _, size := range sizes {
		hi := lo + size
		for i := lo; i < hi; i++ {
			c.Add(i, i, 1+rng.Float64()) // ToCSR sums duplicates, so the pivot is added once
			from, to := lo, i            // strict columns available to row i
			if upper {
				from, to = i+1, hi
			}
			if to > from && rng.Float64() >= empty {
				for k := 1 + rng.Intn(4); k > 0; k-- {
					c.Add(i, from+rng.Intn(to-from), val())
				}
				if rng.Intn(3) == 0 { // chain to the neighbour: the latency-bound case
					if upper {
						c.Add(i, i+1, val())
					} else {
						c.Add(i, i-1, val())
					}
				}
			}
			if wrongSide {
				if j := rng.Intn(n); (j > i) != upper && j != i {
					c.Add(i, j, val())
				}
			}
		}
		lo = hi
	}
	return c.ToCSR()
}

// checkTriSchedule holds the schedule of (m, shape) to the reference loop:
// out of place, with x aliasing b, and fused with one and three weight
// rows, whose folded leaves must be vec.DotAbs's over the solution.
func checkTriSchedule(t *testing.T, rng *rand.Rand, m *CSR, shape triShape) *TriSchedule {
	t.Helper()
	n := m.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(20)-10))
	}
	want := make([]float64, n)
	if err := shape.reference(m, want, b); err != nil {
		t.Fatalf("%s: reference: %v", shape.name, err)
	}
	sched, err := NewTriSchedule(m, shape.upper, shape.unit)
	if err != nil {
		t.Fatalf("%s: NewTriSchedule: %v", shape.name, err)
	}
	check := func(what string, got []float64) {
		t.Helper()
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s n=%d %s: x[%d] = %x, reference %x", shape.name, n, what, i, got[i], want[i])
		}
	}
	// An output starts as NaN, so a row that reads an unknown before it is
	// written cannot match the reference.
	got := nans(n)
	if err := sched.Solve(got, b); err != nil {
		t.Fatal(err)
	}
	check("Solve", got)
	alias := append([]float64(nil), b...)
	if err := sched.Solve(alias, alias); err != nil {
		t.Fatal(err)
	}
	check("Solve in place", alias)
	for _, k := range []int{1, 3} {
		rows := make([][]float64, k)
		for j := range rows {
			rows[j] = make([]float64, n)
			for i := range rows[j] {
				rows[j][i] = rng.NormFloat64()
			}
		}
		lv := vec.NewLeaves(k, n)
		for _, inPlace := range []bool{false, true} {
			src := append([]float64(nil), b...)
			dst := nans(n)
			if inPlace {
				dst = src
			}
			if err := sched.SolveDotAbs(dst, src, rows, lv); err != nil {
				t.Fatal(err)
			}
			lv.Fold()
			check("SolveDotAbs", dst)
			for j := range rows {
				ws, wa := vec.DotAbs(rows[j], want)
				if math.Float64bits(lv.Sum[j]) != math.Float64bits(ws) || math.Float64bits(lv.Abs[j]) != math.Float64bits(wa) {
					t.Fatalf("%s n=%d k=%d inPlace=%v row %d: leaves fold to (%x, %x), DotAbs (%x, %x)",
						shape.name, n, k, inPlace, j, lv.Sum[j], lv.Abs[j], ws, wa)
				}
			}
		}
	}
	return sched
}

// nans returns n NaNs.
func nans(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = math.NaN()
	}
	return x
}

// scheduleBlocks recovers the block boundaries a schedule walks and checks
// on the way that its units tile [0, n) contiguously in solve order.
func scheduleBlocks(t *testing.T, s *TriSchedule) []int {
	t.Helper()
	n := s.m.Rows
	edge := 0 // where the next unit must start
	if s.upper {
		edge = n
	}
	cuts := map[int]bool{0: true, n: true}
	chainLo, chainHi := n, 0 // extent of the partnerless block's slices
	if len(s.units)%5 != 0 {
		t.Fatalf("%d unit words: not five boundaries a unit", len(s.units))
	}
	for u := 0; u < len(s.units); u += 5 {
		c := s.units[u : u+5]
		lo, hi := c[0], c[4]
		nblocks := 0
		for j := 0; j < 4; j++ {
			switch {
			case c[j] > c[j+1]:
				t.Fatalf("malformed unit %v", c)
			case c[j] < c[j+1]:
				if nblocks != j {
					t.Fatalf("unit %v has an empty block before a full one", c)
				}
				nblocks++
			}
		}
		if nblocks == 0 {
			t.Fatalf("empty unit %v", c)
		}
		if s.upper {
			if hi != edge {
				t.Fatalf("unit %v does not continue at %d", c, edge)
			}
			edge = lo
		} else {
			if lo != edge {
				t.Fatalf("unit %v does not continue at %d", c, edge)
			}
			edge = hi
		}
		if nblocks > 1 {
			for _, b := range c {
				cuts[b] = true
			}
			continue
		}
		if hi-lo > vec.Block || (lo/vec.Block != (hi-1)/vec.Block) {
			t.Fatalf("single chain (%d, %d) straddles a leaf boundary", lo, hi)
		}
		chainLo, chainHi = min(chainLo, lo), max(chainHi, hi)
	}
	if (s.upper && edge != 0) || (!s.upper && edge != n) {
		t.Fatalf("units stop at %d of %d rows", edge, n)
	}
	if chainLo < chainHi {
		cuts[chainLo], cuts[chainHi] = true, true
	}
	var blocks []int
	for c := range cuts {
		blocks = append(blocks, c)
	}
	sort.Ints(blocks)
	return blocks
}

// independentCut is the brute-force oracle: rows [c, n) and [0, c) share no
// unknown iff no strict-triangle entry joins a row on one side of c to a
// column on the other.
func independentCut(m *CSR, upper bool, c int) bool {
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.RowView(i)
		for _, j := range cols {
			if j == i || (j > i) != upper {
				continue
			}
			if (i >= c) != (j >= c) {
				return false
			}
		}
	}
	return true
}

// checkBlocks holds the schedule's blocks to the oracle: every boundary is
// an independent cut, every block has reached the coalescing floor (unless
// it is the only one), and no block hides a cut the greedy merge should
// have taken — one at least a floor past its start, other than the last
// cut of all dropped because what followed was too short.
func checkBlocks(t *testing.T, m *CSR, s *TriSchedule) {
	t.Helper()
	n := m.Rows
	if s.lag > 0 {
		checkLag(t, m, s)
		return
	}
	blocks := scheduleBlocks(t, s)
	for b := 0; b+1 < len(blocks); b++ {
		lo, hi := blocks[b], blocks[b+1]
		if lo > 0 && !independentCut(m, s.upper, lo) {
			t.Fatalf("boundary %d couples its two sides", lo)
		}
		if hi-lo < triCoalesce && len(blocks) > 2 {
			t.Fatalf("block [%d, %d) is below the coalescing floor %d", lo, hi, triCoalesce)
		}
		for c := lo + triCoalesce; c < hi; c++ {
			if independentCut(m, s.upper, c) && !(hi == n && n-c < triCoalesce) {
				t.Fatalf("block [%d, %d) misses the independent cut at %d", lo, hi, c)
			}
		}
	}
}

// bandwidth is the brute-force farthest any row of m's strict triangle
// reads from its own index.
func bandwidth(m *CSR, upper bool) int {
	w := 0
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.RowView(i)
		for _, j := range cols {
			if j != i && (j > i) == upper {
				w = max(w, j-i, i-j)
			}
		}
	}
	return w
}

// lagSteps replays a lagged schedule at the given lag: the step at which
// each row is written, every unit's steps after the unit before it, the
// leading segment's rows from the unit's first step and each later segment
// lag steps behind the one before it — the lowest segment leading in a
// lower factor, the highest in an upper one.
func lagSteps(s *TriSchedule, lag int) []int {
	step := make([]int, s.m.Rows)
	base := 0
	for u := 0; u < len(s.units); u += 5 {
		c := s.units[u : u+5]
		next, started := base, 0
		for k := 0; k < 4; k++ {
			seg := k
			if s.upper {
				seg = 3 - k
			}
			lo, hi := c[seg], c[seg+1]
			if lo == hi {
				continue
			}
			for r := 0; r < hi-lo; r++ {
				i := lo + r
				if s.upper {
					i = hi - 1 - r
				}
				step[i] = base + started*lag + r
				next = max(next, step[i]+1)
			}
			started++
		}
		base = next
	}
	return step
}

// unreadyRead is the dependency oracle: the first strict entry (i, j) of m
// whose unknown x_j is not written at an earlier step than row i, or ok.
func unreadyRead(m *CSR, upper bool, step []int) (i, j int, ok bool) {
	for i := 0; i < m.Rows; i++ {
		cols, _ := m.RowView(i)
		for _, j := range cols {
			if j != i && (j > i) == upper && step[j] >= step[i] {
				return i, j, false
			}
		}
	}
	return 0, 0, true
}

// checkLag holds a lagged schedule to the rule that chose it and to the
// dependency oracle: the factor is one block with room for four segments
// of its bandwidth w and a lag under w/6; the units are the segments
// [s·w, (s+1)·w) four at a time, tiling the rows in solve order; replayed
// step by step at the schedule's lag every row reads only unknowns already
// written, and at one less some row does not.
func checkLag(t *testing.T, m *CSR, s *TriSchedule) {
	t.Helper()
	n, w := m.Rows, bandwidth(m, s.upper)
	if n < 4*w || 6*s.lag >= w {
		t.Fatalf("lag %d chosen for n=%d, bandwidth %d", s.lag, n, w)
	}
	for c := triCoalesce; c <= n-triCoalesce; c++ {
		if independentCut(m, s.upper, c) {
			t.Fatalf("lag %d chosen for a factor with an independent cut at %d", s.lag, c)
		}
	}
	edge := 0 // where the next unit must start (lower) or end (upper)
	if s.upper {
		edge = n
	}
	for u := 0; u < len(s.units); u += 5 {
		c := s.units[u : u+5]
		lo := c[0]
		if lo%(4*w) != 0 {
			t.Fatalf("unit %v does not start on a group of four segments of %d", c, w)
		}
		for j, b := range c {
			if b != min(lo+j*w, n) {
				t.Fatalf("unit %v is not four segments of %d rows", c, w)
			}
		}
		if (!s.upper && lo != edge) || (s.upper && c[4] != edge) {
			t.Fatalf("unit %v does not continue at %d", c, edge)
		}
		edge = c[4]
		if s.upper {
			edge = lo
		}
	}
	if (s.upper && edge != 0) || (!s.upper && edge != n) {
		t.Fatalf("units stop at %d of %d rows", edge, n)
	}
	if i, j, ok := unreadyRead(m, s.upper, lagSteps(s, s.lag)); !ok {
		t.Fatalf("lag %d: row %d reads x[%d] before it is written", s.lag, i, j)
	}
	if _, _, ok := unreadyRead(m, s.upper, lagSteps(s, s.lag-1)); ok {
		t.Fatalf("lag %d is not the least: %d would do", s.lag, s.lag-1)
	}
}

// bandTriangle draws a triangular factor of n rows with bandwidth exactly w
// (every row from w on reads the unknown w before it, as a grid row reads
// the one below) whose least lag is exactly lag, 1 ≤ lag ≤ w: rows chain to
// their neighbour and read earlier rows inside their segment [s·w, (s+1)·w),
// and reach into the segment before only at distances the lag allows, the
// first row of the second segment at the nearest. An upper factor is the
// same pattern mirrored. Values and wrongSide are as in blockTriangle.
func bandTriangle(rng *rand.Rand, n, w, lag int, upper, wrongSide bool) *CSR {
	val := func() float64 { return rng.NormFloat64() * math.Exp2(float64(-3-rng.Intn(20))) }
	c := NewCOO(n, n)
	add := func(i, j int) { // the strict entry row i reads x_j, on the factor's side
		if upper {
			i, j = j, i
		}
		c.Add(i, j, val())
	}
	for i := 0; i < n; i++ {
		c.Add(i, i, 1+rng.Float64())
		seg := i / w * w
		if i >= w {
			add(i, i-w)
		}
		if i > seg {
			add(i, i-1)
			if rng.Intn(3) == 0 {
				add(i, seg+rng.Intn(i-seg))
			}
		}
		if d := w + 1 - lag + rng.Intn(lag); rng.Intn(4) == 0 && d > i-seg && d <= i {
			add(i, i-d)
		}
		if wrongSide {
			if j := rng.Intn(n); (j > i) != upper && j != i {
				c.Add(i, j, val())
			}
		}
	}
	if n > w {
		add(w, lag-1)
	}
	return c.ToCSR()
}

// iluPattern returns the lower and upper triangles of a's principal block
// [lo, hi), which have the pattern of its ILU(0) factors — all the schedule
// reads of them — scaled by 1/‖a‖∞ so that a unit-diagonal solve of the
// lower one cannot overflow.
func iluPattern(a *CSR, lo, hi int) (l, u *CSR) {
	l, u = a.BlockTriangles(lo, hi, 1)
	s := 1 / a.NormInf()
	for _, m := range []*CSR{l, u} {
		for k := range m.Val {
			m.Val[k] *= s
		}
	}
	return l, u
}

func TestTriScheduleMatchesReferenceBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	equal := func(k, size int) []int {
		s := make([]int, k)
		for i := range s {
			s[i] = size
		}
		return s
	}
	cases := []struct {
		name  string
		sizes []int
		empty float64
		wrong bool
	}{
		{"one block", []int{700}, 0.1, false},
		{"16 equal blocks", equal(16, 100), 0.1, false},
		{"unequal blocks", []int{300, 41, 200, 129, 128, 127, 64}, 0.1, false},
		{"blocks below a leaf and below the floor", []int{5, 40, 3, 100, 31, 32, 33, 200, 1, 1, 1, 90, 2}, 0.2, false},
		{"odd block count", equal(5, 150), 0.1, false},
		// Four-way lockstep: every block in turn the one that runs out first
		// and last, so the pair and chain that finish a unit start from each
		// of the four; then units of three, of four + one, of four + three,
		// and four units of four.
		{"3 unequal blocks", []int{100, 41, 77}, 0.1, false},
		{"4 blocks ascending", []int{40, 50, 60, 70}, 0.1, false},
		{"4 blocks descending", []int{70, 60, 50, 40}, 0.1, false},
		{"4 blocks, inner ones longest", []int{45, 170, 130, 33}, 0.1, false},
		{"4 blocks, two tied", []int{60, 35, 60, 90}, 0.1, true},
		{"5 unequal blocks", []int{40, 150, 60, 129, 45}, 0.1, false},
		{"7 unequal blocks", []int{64, 33, 90, 47, 120, 35, 80}, 0.1, false},
		{"16 unequal blocks", []int{88, 87, 88, 33, 140, 87, 88, 88, 40, 87, 129, 88, 87, 50, 88, 87}, 0.1, false},
		{"mostly empty strict parts", []int{400}, 0.9, false},
		{"no strict part at all", []int{300}, 1, false},
		{"wrong-side entries ignored", []int{90, 35, 260}, 0.1, true},
		{"n=0", nil, 0, false},
		{"n=1", []int{1}, 0, false},
		{"n=127", []int{127}, 0.1, false},
		{"n=128", []int{64, 64}, 0.1, false},
		{"n=129", []int{129}, 0.1, true},
	}
	for _, tc := range cases {
		for _, shape := range triShapes {
			m := blockTriangle(rng, tc.sizes, shape.upper, tc.empty, tc.wrong)
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				checkBlocks(t, m, checkTriSchedule(t, rng, m, shape))
			})
		}
	}
	// ILU(0) patterns — L for the unit shape, U, and Uᵀ as a lower factor
	// with pivots — of the operators whose one-block factors run lagged, and of
	// those that fall back to leaf-cut chains (checkBlocks holds a one-block
	// factor to one block): too few segments, a lag too long for the
	// segment, a rank block cut in the middle of a grid row, a circuit.
	lap := Laplacian2D(40, 30)
	for _, tc := range []struct {
		name   string
		a      *CSR
		lo, hi int // the rank block; hi 0: all of a
		lag    int // 0: not lagged
	}{
		{"ilu0 Laplacian2D(60,60)", Laplacian2D(60, 60), 0, 0, 1},
		{"ilu0 Laplacian2D(50,37)", Laplacian2D(50, 37), 0, 0, 1},
		{"ilu0 Laplacian2D(40,7)", Laplacian2D(40, 7), 0, 0, 1},
		{"ilu0 Laplacian2D(40,6), lag too long", Laplacian2D(40, 6), 0, 0, 0},
		{"ilu0 Laplacian2D(3,50), three segments", Laplacian2D(3, 50), 0, 0, 0},
		{"ilu0 ConvectionDiffusion2D(40,30)", ConvectionDiffusion2D(40, 30, 0.5), 0, 0, 1},
		{"ilu0 Laplacian3D(10,9,8)", Laplacian3D(10, 9, 8), 0, 0, 1},
		{"ilu0 rank block 2 of 2", lap, 600, 1200, 1},
		{"ilu0 rank block 2 of 3, mid grid row", lap, 400, 800, 0},
		{"ilu0 CircuitLike(1600), one block", CircuitLike(1600, 3), 0, 0, 0},
	} {
		if tc.hi == 0 {
			tc.hi = tc.a.Rows
		}
		l, u := iluPattern(tc.a, tc.lo, tc.hi)
		for _, shape := range triShapes {
			m := l
			switch {
			case shape.upper:
				m = u
			case !shape.unit:
				m = u.Transpose()
			}
			t.Run(tc.name+"/"+shape.name, func(t *testing.T) {
				s := checkTriSchedule(t, rng, m, shape)
				if s.lag != tc.lag {
					t.Fatalf("lag %d, want %d", s.lag, tc.lag)
				}
				checkBlocks(t, m, s)
			})
		}
	}
}

// TestTriScheduleOnPreconditionerPatterns runs the patterns the benchmark's
// preconditioners hand the schedule: one block (plain ILU(0)) and the 16
// block-Jacobi ranges, equal on the circuit operator and unequal on
// ConvectionDiffusion2D(150, 150) (22 500 rows ÷ 16 gives 1406 and 1407) —
// where the schedule must find exactly the ranges block-Jacobi cut.
func TestTriScheduleOnPreconditionerPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for name, a := range map[string]*CSR{
		"circuit":  CircuitLike(1600, 3),
		"convdiff": ConvectionDiffusion2D(150, 150, 0.5),
	} {
		n := a.Rows
		// The unit-diagonal solve of the raw triangle would overflow.
		for i, s := 0, 1/a.NormInf(); i < len(a.Val); i++ {
			a.Val[i] *= s
		}
		l, u := a.BlockTriangles(0, n, 1)
		bl, bu := a.BlockTriangles(0, n, 16)
		for _, shape := range triShapes {
			whole, cut := l, bl
			if shape.upper {
				whole, cut = u, bu
			}
			checkTriSchedule(t, rng, whole, shape)
			blocks := scheduleBlocks(t, checkTriSchedule(t, rng, cut, shape))
			if name != "convdiff" {
				continue // the circuit blocks may split further; the grid's cannot
			}
			for b := 0; b <= 16; b++ {
				if blocks[b] != b*n/16 {
					t.Fatalf("%s %s: blocks %v, want the 16 block-Jacobi ranges", name, shape.name, blocks)
				}
			}
		}
	}
}

// TestTriScheduleBlocksProperty: random block structures, block detection
// against the oracle and the solve against the reference.
func TestTriScheduleBlocksProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 60; trial++ {
		sizes := make([]int, 1+rng.Intn(12))
		for i := range sizes {
			sizes[i] = 1 + rng.Intn(80)
		}
		shape := triShapes[trial%len(triShapes)]
		m := blockTriangle(rng, sizes, shape.upper, rng.Float64()/2, trial%2 == 0)
		checkBlocks(t, m, checkTriSchedule(t, rng, m, shape))
	}
	// Block counts that leave every remainder of a group of four, each block
	// of its own length at or above the coalescing floor and chained densely
	// enough not to split: the schedule must walk exactly these blocks.
	for trial, nblocks := range []int{3, 4, 5, 7, 16, 3, 4, 5, 7, 16, 4, 4} {
		sizes := make([]int, nblocks)
		want := []int{0}
		for i := range sizes {
			sizes[i] = triCoalesce + rng.Intn(100)
			want = append(want, want[i]+sizes[i])
		}
		shape := triShapes[trial%len(triShapes)]
		m := chainedBlocks(rng, sizes, shape.upper)
		sched := checkTriSchedule(t, rng, m, shape)
		checkBlocks(t, m, sched)
		if got := scheduleBlocks(t, sched); !slices.Equal(got, want) {
			t.Fatalf("%s, %d blocks: schedule walks %v, built %v", shape.name, nblocks, got, want)
		}
	}
}

// TestTriScheduleLagProperty: random banded one-block factors, every lag
// from 1 to past the rule's limit and lengths from under four segments up.
// Each is lagged exactly when the rule says — and then held to the
// dependency oracle, its lag the least that works — or else walked as
// leaf-cut chains (checkBlocks: a one-block factor has no cut to walk);
// the solve always matches the reference.
func TestTriScheduleLagProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		w := 7 + rng.Intn(60)
		lag := 1 + rng.Intn(w/4)
		n := w + 1 + rng.Intn(8*w)
		shape := triShapes[trial%len(triShapes)]
		m := bandTriangle(rng, n, w, lag, shape.upper, trial%2 == 0)
		s := checkTriSchedule(t, rng, m, shape)
		checkBlocks(t, m, s)
		want := lag
		if n < 4*w || 6*lag >= w {
			want = 0
		}
		if s.lag != want {
			t.Fatalf("%s n=%d w=%d: lag %d, want %d", shape.name, n, w, s.lag, want)
		}
	}
}

// TestTriScheduleAllocs: the lag analysis allocates nothing beyond the
// arrays NewTriSchedule built before it existed — the schedule, its cut,
// the reach scratch, the block list, the units and a non-unit factor's
// pivots — and a lagged solve, plain or fused, allocates nothing.
func TestTriScheduleAllocs(t *testing.T) {
	l, u := iluPattern(Laplacian2D(150, 150), 0, 22500)
	n := l.Rows
	for _, tc := range []struct {
		name        string
		m           *CSR
		upper, unit bool
		allocs      float64
	}{
		{"lowerunit", l, false, true, 5},
		{"upper", u, true, false, 6},
	} {
		var s *TriSchedule
		var err error
		if a := testing.AllocsPerRun(5, func() { s, err = NewTriSchedule(tc.m, tc.upper, tc.unit) }); err != nil || a != tc.allocs {
			t.Fatalf("%s: NewTriSchedule allocates %v times (err %v), want %v", tc.name, a, err, tc.allocs)
		}
		if s.lag == 0 {
			t.Fatalf("%s: the ILU(0) pattern of Laplacian2D(150,150) is not lagged", tc.name)
		}
		x, b := make([]float64, n), make([]float64, n)
		rows, lv := [][]float64{make([]float64, n)}, vec.NewLeaves(1, n)
		if a := testing.AllocsPerRun(5, func() { err = s.Solve(x, b) }); err != nil || a != 0 {
			t.Errorf("%s: Solve allocates %v times (err %v)", tc.name, a, err)
		}
		if a := testing.AllocsPerRun(5, func() { err = s.SolveDotAbs(x, b, rows, lv) }); err != nil || a != 0 {
			t.Errorf("%s: SolveDotAbs allocates %v times (err %v)", tc.name, a, err)
		}
	}
}

// chainedBlocks is blockTriangle with every row chained to its neighbour
// inside the block, so that no block splits into smaller independent ones.
func chainedBlocks(rng *rand.Rand, sizes []int, upper bool) *CSR {
	m := blockTriangle(rng, sizes, upper, 0.3, false)
	c := NewCOO(m.Rows, m.Cols)
	lo := 0
	for _, size := range sizes {
		for i := lo; i < lo+size; i++ {
			cols, vals := m.RowView(i)
			for k, j := range cols {
				c.Add(i, j, vals[k])
			}
			if upper && i+1 < lo+size {
				c.Add(i, i+1, 0x1p-9)
			} else if !upper && i > lo {
				c.Add(i, i-1, 0x1p-9)
			}
		}
		lo += size
	}
	return c.ToCSR()
}

func TestNewTriScheduleErrors(t *testing.T) {
	c := NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 0, 1) // no (1,1) entry
	c.Add(2, 2, 1)
	l := c.ToCSR()
	for _, tc := range []struct {
		name        string
		m           *CSR
		upper, unit bool
		want        string
	}{
		{"absent lower pivot", l, false, false, "sparse: zero diagonal at row 1 in SolveLower"},
		{"absent upper pivot", l.Transpose(), true, false, "sparse: zero diagonal at row 1 in SolveUpper"},
		{"not square", adversarialCSR(rand.New(rand.NewSource(1)), 4, 5), false, true, "dimension mismatch"},
		{"unsorted row", &CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 1, 3}, ColIdx: []int{0, 1, 0}, Val: []float64{1, 1, 1}}, false, false, "row 1 not sorted"},
		{"unsorted upper row", &CSR{Rows: 2, Cols: 2, RowPtr: []int{0, 2, 3}, ColIdx: []int{1, 0, 1}, Val: []float64{1, 1, 1}}, true, false, "row 0 not sorted"},
	} {
		if _, err := NewTriSchedule(tc.m, tc.upper, tc.unit); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.want)
		}
	}
	// The unit shape never looks at the diagonal, stored or not.
	s, err := NewTriSchedule(l, false, true)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]float64, 3)
	if err := s.Solve(x[:2], x); err == nil {
		t.Error("short x solved without error")
	}
	if err := s.SolveDotAbs(x, x[:2], nil, vec.NewLeaves(0, 3)); err == nil {
		t.Error("short b solved without error")
	}
}

// FuzzTriSchedule draws a block-structured triangle of either shape from
// the fuzzed parameters and holds its schedule to the reference loop and
// the oracles. With the top bit of nblocks set it draws one banded block
// instead, of bandwidth 1 + nblocks mod 64 and lag 1 + emptyPct mod that.
// Seeds live in testdata/fuzz/FuzzTriSchedule.
func FuzzTriSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, n, nblocks, emptyPct uint16, upper, unit, wrongSide bool) {
		rng := rand.New(rand.NewSource(seed))
		rows := int(n) % 600
		shape := triShape{"fuzz", upper, unit && !upper}
		if nblocks >= 1<<15 {
			w := 1 + int(nblocks)%64
			if rows <= w {
				return
			}
			m := bandTriangle(rng, rows, w, 1+int(emptyPct)%w, upper, wrongSide)
			checkBlocks(t, m, checkTriSchedule(t, rng, m, shape))
			return
		}
		sizes := make([]int, 0, int(nblocks)%40+1)
		for left := rows; left > 0; {
			s := left
			if len(sizes)+1 < cap(sizes) {
				s = 1 + rng.Intn(left)
			}
			sizes = append(sizes, s)
			left -= s
		}
		m := blockTriangle(rng, sizes, upper, float64(emptyPct%101)/100, wrongSide)
		checkBlocks(t, m, checkTriSchedule(t, rng, m, shape))
	})
}
