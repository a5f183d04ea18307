package precond

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"newsum/internal/sparse"
)

// ilu0FactorCOO is the oracle of ilu0Factor: the factorization as it was
// before the factors were built in place — IKJ on a clone of A, then L and U
// split out entry by entry through two COO builders.
func ilu0FactorCOO(a *sparse.CSR) (l, u *sparse.CSR, err error) {
	n := a.Rows
	if a.Cols != n {
		return nil, nil, fmt.Errorf("precond: ILU(0) requires a square matrix")
	}
	w := a.Clone()
	diagPos := make([]int, n)
	for i := 0; i < n; i++ {
		diagPos[i] = -1
		for k := w.RowPtr[i]; k < w.RowPtr[i+1]; k++ {
			if w.ColIdx[k] == i {
				diagPos[i] = k
				break
			}
		}
		if diagPos[i] == -1 {
			return nil, nil, fmt.Errorf("precond: ILU(0) requires stored diagonal (row %d)", i)
		}
	}
	colPos := make([]int, n)
	for j := range colPos {
		colPos[j] = -1
	}
	for i := 0; i < n; i++ {
		lo, hi := w.RowPtr[i], w.RowPtr[i+1]
		for k := lo; k < hi; k++ {
			colPos[w.ColIdx[k]] = k
		}
		for k := lo; k < hi; k++ {
			t := w.ColIdx[k]
			if t >= i {
				break
			}
			piv := w.Val[diagPos[t]]
			if piv == 0 {
				return nil, nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", t)
			}
			factor := w.Val[k] / piv
			w.Val[k] = factor
			for kk := diagPos[t] + 1; kk < w.RowPtr[t+1]; kk++ {
				if p := colPos[w.ColIdx[kk]]; p >= 0 {
					w.Val[p] -= factor * w.Val[kk]
				}
			}
		}
		if w.Val[diagPos[i]] == 0 {
			return nil, nil, fmt.Errorf("precond: ILU(0) zero pivot at row %d", i)
		}
		for k := lo; k < hi; k++ {
			colPos[w.ColIdx[k]] = -1
		}
	}
	lc := sparse.NewCOO(n, n)
	uc := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		for k := w.RowPtr[i]; k < w.RowPtr[i+1]; k++ {
			j := w.ColIdx[k]
			if j < i {
				lc.Add(i, j, w.Val[k])
			} else {
				uc.Add(i, j, w.Val[k])
			}
		}
		lc.Add(i, i, 1)
	}
	return lc.ToCSR(), uc.ToCSR(), nil
}

// ILU0FactorCOO and RequireFactorEqual reach the oracle from the external
// tests of this directory (the par partitions: par imports precond).
var (
	ILU0FactorCOO      = ilu0FactorCOO
	RequireFactorEqual = requireFactorEqual
)

// blockDiagCOO is BlockJacobiILU0's restriction of a to nblocks diagonal
// blocks, assembled entry by entry.
func blockDiagCOO(a *sparse.CSR, nblocks int) *sparse.CSR {
	n := a.Rows
	bd := sparse.NewCOO(n, n)
	for b := 0; b < nblocks; b++ {
		lo, hi := b*n/nblocks, (b+1)*n/nblocks
		for i := lo; i < hi; i++ {
			cols, vals := a.RowView(i)
			for k, j := range cols {
				if j >= lo && j < hi {
					bd.Add(i, j, vals[k])
				}
			}
		}
	}
	return bd.ToCSR()
}

// requireFactorEqual holds a factor built in place to the COO-built one:
// RowPtr, ColIdx, the bits of Val, the row plan (reflect.DeepEqual compares
// the unexported field too), and arrays allocated at their final length.
func requireFactorEqual(t *testing.T, what string, got, want *sparse.CSR) {
	t.Helper()
	if err := got.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: pattern, values or row plan differ from the COO-built factor", what)
	}
	for k, v := range want.Val {
		if math.Float64bits(got.Val[k]) != math.Float64bits(v) {
			t.Fatalf("%s: Val[%d] = %x, COO-built %x", what, k, got.Val[k], v)
		}
	}
	if cap(got.RowPtr) != len(got.RowPtr) || cap(got.ColIdx) != len(got.ColIdx) || cap(got.Val) != len(got.Val) {
		t.Fatalf("%s: cap/len RowPtr %d/%d ColIdx %d/%d Val %d/%d, want exact",
			what, cap(got.RowPtr), len(got.RowPtr), cap(got.ColIdx), len(got.ColIdx), cap(got.Val), len(got.Val))
	}
}

func builderGenerators() map[string]*sparse.CSR {
	return map[string]*sparse.CSR{
		"laplacian2d":  sparse.Laplacian2D(23, 17),
		"laplacian3d":  sparse.Laplacian3D(7, 8, 9),
		"circuit":      sparse.CircuitLike(3000, 20160531),
		"convdiff":     sparse.ConvectionDiffusion2D(31, 29, 20),
		"diagdominant": sparse.DiagDominant(700, 6, 5),
		"spdrandom":    sparse.SPDRandom(900, 4, 9),
		"tridiag":      sparse.Tridiag(513, -1, 2, -1),
		"identity":     sparse.Identity(300),
		"one-row":      sparse.Identity(1),
		"empty":        sparse.Identity(0),
	}
}

// TestILU0FactorMatchesCOO: L and U written in place on A's triangles equal
// the factors split out of a factored clone through COO builders, bit for
// bit, on every generator — and so do the stages BlockJacobiILU0 hands the
// solvers at 1 and 16 blocks.
func TestILU0FactorMatchesCOO(t *testing.T) {
	for name, a := range builderGenerators() {
		wantL, wantU, err := ilu0FactorCOO(a)
		if err != nil {
			t.Fatalf("%s: oracle: %v", name, err)
		}
		p, err := ILU0(a)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		requireFactorEqual(t, name+" L", p.Stages()[0].M, wantL)
		requireFactorEqual(t, name+" U", p.Stages()[1].M, wantU)
		for _, nblocks := range []int{1, 16} {
			if nblocks > a.Rows {
				continue
			}
			p, err := BlockJacobiILU0(a, nblocks)
			if err != nil {
				t.Fatalf("%s bjacobi%d: %v", name, nblocks, err)
			}
			wantL, wantU, err := ilu0FactorCOO(blockDiagCOO(a, nblocks))
			if err != nil {
				t.Fatalf("%s bjacobi%d: oracle: %v", name, nblocks, err)
			}
			st := p.Stages()
			requireFactorEqual(t, fmt.Sprintf("%s bjacobi%d L", name, nblocks), st[0].M, wantL)
			requireFactorEqual(t, fmt.Sprintf("%s bjacobi%d U", name, nblocks), st[1].M, wantU)
		}
	}
}

// TestILU0FactorErrorsMatchCOO: a rectangular matrix, a missing diagonal
// (also behind a zero pivot, which must not pre-empt it) and a zero pivot —
// stored, or produced by the elimination — fail with the oracle's text, and
// block-Jacobi in one block with the text its own assembly loop gave.
func TestILU0FactorErrorsMatchCOO(t *testing.T) {
	build := func(n int, entries ...[3]float64) *sparse.CSR {
		c := sparse.NewCOO(n, n)
		for _, e := range entries {
			c.Add(int(e[0]), int(e[1]), e[2])
		}
		return c.ToCSR()
	}
	for _, c := range []struct {
		name    string
		a       *sparse.CSR
		bjacobi string // BlockJacobiILU0(a, 1)'s error
	}{
		{"rectangular", sparse.NewCOO(2, 3).ToCSR(), "precond: block Jacobi requires a square matrix"},
		{"no diagonal", build(2, [3]float64{0, 1, 1}, [3]float64{1, 0, 1}), "precond: block Jacobi requires stored diagonal (row 0)"},
		{"empty row", build(3, [3]float64{0, 0, 1}, [3]float64{2, 2, 1}), "precond: block Jacobi requires stored diagonal (row 1)"},
		{"diagonal past row", build(3, [3]float64{0, 0, 0}, [3]float64{1, 0, 1}, [3]float64{1, 2, 1}, [3]float64{2, 2, 1}),
			"precond: block Jacobi requires stored diagonal (row 1)"},
		{"stored zero pivot", build(2, [3]float64{0, 0, 0}, [3]float64{1, 0, 1}, [3]float64{1, 1, 1}), "precond: ILU(0) zero pivot at row 0"},
		{"eliminated pivot", build(2, [3]float64{0, 0, 2}, [3]float64{0, 1, 4}, [3]float64{1, 0, 1}, [3]float64{1, 1, 2}),
			"precond: ILU(0) zero pivot at row 1"},
	} {
		_, _, want := ilu0FactorCOO(c.a)
		_, got := ILU0(c.a)
		if want == nil || got == nil || got.Error() != want.Error() {
			t.Errorf("%s: error %v, COO-built %v", c.name, got, want)
		}
		if _, got := BlockJacobiILU0(c.a, 1); got == nil || got.Error() != c.bjacobi {
			t.Errorf("%s: block Jacobi error %v, want %q", c.name, got, c.bjacobi)
		}
	}
}

// TestFactorAllocs pins what ILU0 and block-Jacobi's factorization
// allocate on the benchmark's grid operator: the two factors, each three
// arrays and a row plan, the factorization's one scratch row — and, for
// ILU0, the stages' schedules. No intermediate copy of A, and no scratch
// vector for a chain of solves (31 when every staged preconditioner
// allocated one). (BlockJacobiILU0
// itself adds the schedules and a fmt.Sprintf whose buffer pool a garbage
// collection may empty, so its count is not exact from run to run.)
func TestFactorAllocs(t *testing.T) {
	a := sparse.ConvectionDiffusion2D(150, 150, 0.5)
	for _, c := range []struct {
		name string
		want float64
		f    func() error
	}{
		{"ILU0", 30, func() error { _, err := ILU0(a); return err }},
		// BlockJacobiILU0 made 14 allocations more when A's block diagonal
		// was assembled through a COO builder and its triangles cut from
		// that copy.
		{"ilu0Factor(16 blocks)", 17, func() error { _, _, err := ilu0Factor(a, 0, a.Rows, 16, "block Jacobi"); return err }},
	} {
		if got := testing.AllocsPerRun(3, func() {
			if err := c.f(); err != nil {
				t.Fatal(err)
			}
		}); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}

// TestJacobiAllocs pins what Jacobi allocates on the benchmark's grid
// operator: the diagonal, a builder reserved for exactly its n entries,
// whose value array becomes the stage matrix's Val, the CSR with its row
// plan, and the preconditioner — 15 allocations and under 56 bytes a row
// (75 allocations and ≈ 118 bytes a row when the builder grew by doubling
// and Val was then copied).
// The collector is off while it measures.
func TestJacobiAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime allocates on its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := sparse.Laplacian2D(150, 150)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Jacobi(a); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, mallocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	if mallocs != 15 || bytes >= 56*uint64(a.Rows) {
		t.Errorf("Jacobi: %d bytes in %d allocations, want under %d in 15", bytes, mallocs, 56*a.Rows)
	}
}

// ssorByCOO is SSOR's three stage matrices as they were built before they
// were cut from A's triangles: entry by entry through COO builders.
func ssorByCOO(a *sparse.CSR, omega float64) (lower, mid, upper *sparse.CSR) {
	n := a.Rows
	diag := a.Diag(nil)
	lc, uc, mc := sparse.NewCOO(n, n), sparse.NewCOO(n, n), sparse.NewCOO(n, n)
	scale := omega / (2 - omega)
	for i := 0; i < n; i++ {
		cols, vals := a.RowView(i)
		for k, j := range cols {
			switch {
			case j < i:
				lc.Add(i, j, vals[k]*scale)
			case j > i:
				uc.Add(i, j, vals[k])
			}
		}
		lc.Add(i, i, diag[i]/omega*scale)
		uc.Add(i, i, diag[i]/omega)
		mc.Add(i, i, diag[i]/omega)
	}
	return lc.ToCSR(), mc.ToCSR(), uc.ToCSR()
}

// TestSSORStagesMatchCOO: SSOR's stages, rewritten in place on A's
// triangles and an identity, equal the COO-built ones bit for bit; a zero
// or missing diagonal fails at the same row with the same text.
func TestSSORStagesMatchCOO(t *testing.T) {
	for name, a := range builderGenerators() {
		for _, omega := range []float64{1, 1.2, 0.3} {
			p, err := SSOR(a, omega)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			l, m, u := ssorByCOO(a, omega)
			st := p.Stages()
			what := fmt.Sprintf("%s ssor(%g)", name, omega)
			requireFactorEqual(t, what+" lower", st[0].M, l)
			requireFactorEqual(t, what+" mid", st[1].M, m)
			requireFactorEqual(t, what+" upper", st[2].M, u)
		}
	}
	c := sparse.NewCOO(3, 3)
	c.Add(0, 0, 1)
	c.Add(1, 0, 1)
	c.Add(2, 2, 0)
	if _, err := SSOR(c.ToCSR(), 1); err == nil || err.Error() != "precond: SSOR requires nonzero diagonal (row 1)" {
		t.Fatalf("missing diagonal: %v", err)
	}
}
