package precond

import (
	"math"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

func randVecP(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// applyStages replays the stage list manually and checks it matches Apply —
// the property the ABFT engine depends on when it interleaves checksum
// updates between stages.
func applyStages(t *testing.T, p Preconditioner, r []float64) []float64 {
	t.Helper()
	n := p.Dims()
	in := append([]float64(nil), r...)
	for _, st := range p.Stages() {
		out := make([]float64, n)
		if err := st.Apply(out, in); err != nil {
			t.Fatalf("stage apply: %v", err)
		}
		in = out
	}
	return in
}

func TestIdentity(t *testing.T) {
	p := Identity(4)
	r := []float64{1, 2, 3, 4}
	z := make([]float64, 4)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if z[i] != r[i] {
			t.Fatalf("identity changed the vector: %v", z)
		}
	}
	if len(p.Stages()) != 0 || p.Name() != "none" || p.Dims() != 4 {
		t.Fatalf("identity metadata wrong")
	}
}

func TestJacobi(t *testing.T) {
	a := sparse.Tridiag(5, -1, 4, -1)
	p, err := Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	r := []float64{4, 8, 12, 16, 20}
	z := make([]float64, 5)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Abs(z[i]-r[i]/4) > 1e-15 {
			t.Fatalf("Jacobi apply: %v", z)
		}
	}
}

func TestJacobiZeroDiagonal(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 0, 1)
	c.Add(1, 0, 1)
	if _, err := Jacobi(c.ToCSR()); err == nil {
		t.Fatalf("expected zero-diagonal error")
	}
}

// TestILU0ExactOnTridiag: for a tridiagonal matrix ILU(0) has no dropped
// fill, so M = A exactly and applying the preconditioner solves A z = r.
func TestILU0ExactOnTridiag(t *testing.T) {
	a := sparse.Tridiag(50, -1, 2.5, -1)
	p, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	zTrue := randVecP(rng, 50)
	r := make([]float64, 50)
	a.MulVec(r, zTrue)
	z := make([]float64, 50)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	for i := range z {
		if math.Abs(z[i]-zTrue[i]) > 1e-10 {
			t.Fatalf("ILU(0) not exact on tridiagonal: z[%d]=%v want %v", i, z[i], zTrue[i])
		}
	}
}

func TestILU0StagesComposeLikeApply(t *testing.T) {
	a := sparse.Laplacian2D(6, 6)
	p, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	r := randVecP(rng, a.Rows)
	z := make([]float64, a.Rows)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	staged := applyStages(t, p, r)
	for i := range z {
		if math.Abs(z[i]-staged[i]) > 1e-13 {
			t.Fatalf("stage composition differs at %d", i)
		}
	}
}

func TestILU0RequiresDiagonal(t *testing.T) {
	c := sparse.NewCOO(2, 2)
	c.Add(0, 1, 1)
	c.Add(1, 0, 1)
	if _, err := ILU0(c.ToCSR()); err == nil {
		t.Fatalf("expected missing-diagonal error")
	}
}

func TestBlockJacobiILU0(t *testing.T) {
	a := sparse.Laplacian2D(8, 8)
	p, err := BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Block-diagonal: applying to a vector supported on one block must
	// produce output supported on the same block.
	n := a.Rows
	r := make([]float64, n)
	for i := 0; i < n/4; i++ {
		r[i] = 1
	}
	z := make([]float64, n)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	for i := n / 4; i < n; i++ {
		if z[i] != 0 {
			t.Fatalf("block coupling leaked to index %d", i)
		}
	}
	// With one block it degenerates to plain ILU(0).
	p1, err := BlockJacobiILU0(a, 1)
	if err != nil {
		t.Fatal(err)
	}
	pFull, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	rr := randVecP(rng, n)
	z1 := make([]float64, n)
	z2 := make([]float64, n)
	if err := p1.Apply(z1, rr); err != nil {
		t.Fatal(err)
	}
	if err := pFull.Apply(z2, rr); err != nil {
		t.Fatal(err)
	}
	for i := range z1 {
		if math.Abs(z1[i]-z2[i]) > 1e-12 {
			t.Fatalf("1-block block-Jacobi differs from ILU(0)")
		}
	}
}

func TestBlockJacobiBadParams(t *testing.T) {
	a := sparse.Laplacian2D(4, 4)
	if _, err := BlockJacobiILU0(a, 0); err == nil {
		t.Fatalf("expected error for 0 blocks")
	}
	if _, err := BlockJacobiILU0(a, 17); err == nil {
		t.Fatalf("expected error for more blocks than rows")
	}
	rect := sparse.NewCOO(2, 3).ToCSR()
	if _, err := BlockJacobiILU0(rect, 1); err == nil {
		t.Fatalf("expected error for rectangular matrix")
	}
}

// TestSSORDefinition checks M z = r against the explicit SSOR formula
// M = (D/ω + L)·(D/ω)⁻¹·(D/ω + U)·ω/(2−ω) on a small dense system.
func TestSSORDefinition(t *testing.T) {
	a := sparse.Tridiag(6, -1, 4, -1)
	const omega = 1.3
	p, err := SSOR(a, omega)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	r := randVecP(rng, 6)
	z := make([]float64, 6)
	if err := p.Apply(z, r); err != nil {
		t.Fatal(err)
	}
	// Rebuild M densely and check M·z = r.
	n := 6
	d := a.Dense()
	m := make([][]float64, n)
	for i := range m {
		m[i] = make([]float64, n)
	}
	// K1 = D/ω + L, K2 = D/ω + U, M = K1·(D/ω)⁻¹·K2·ω/(2−ω).
	k1 := make([][]float64, n)
	k2 := make([][]float64, n)
	for i := 0; i < n; i++ {
		k1[i] = make([]float64, n)
		k2[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			switch {
			case j < i:
				k1[i][j] = d[i][j]
			case j > i:
				k2[i][j] = d[i][j]
			default:
				k1[i][i] = d[i][i] / omega
				k2[i][i] = d[i][i] / omega
			}
		}
	}
	scale := omega / (2 - omega)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				// (K1)(D/ω)⁻¹(K2) = Σ_k k1[i][k]·ω/d[k][k]·k2[k][j]
				s += k1[i][k] * omega / d[k][k] * k2[k][j]
			}
			m[i][j] = s * scale
		}
	}
	mz := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			mz[i] += m[i][j] * z[j]
		}
	}
	for i := range r {
		if math.Abs(mz[i]-r[i]) > 1e-10 {
			t.Fatalf("SSOR: (Mz)[%d]=%v, want %v", i, mz[i], r[i])
		}
	}
}

func TestSSORBadOmega(t *testing.T) {
	a := sparse.Tridiag(4, -1, 4, -1)
	for _, w := range []float64{0, -1, 2, 3} {
		if _, err := SSOR(a, w); err == nil {
			t.Errorf("omega %v accepted", w)
		}
	}
}

func TestApplyDimensionMismatch(t *testing.T) {
	p := Identity(4)
	if err := p.Apply(make([]float64, 3), make([]float64, 4)); err == nil {
		t.Fatalf("expected dimension error")
	}
}

func TestStageApplyExported(t *testing.T) {
	a := sparse.Tridiag(4, -1, 4, -1)
	p, err := ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stages()[0]
	out := make([]float64, 4)
	if err := st.Apply(out, []float64{1, 1, 1, 1}); err != nil {
		t.Fatal(err)
	}
	if out[0] != 1 { // unit-diagonal L: first entry passes through
		t.Fatalf("stage apply: %v", out)
	}
}

func BenchmarkILU0Setup(b *testing.B) {
	a := sparse.CircuitLike(40000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := BlockJacobiILU0(a, 16); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlockJacobiApply(b *testing.B) {
	a := sparse.CircuitLike(40000, 1)
	p, err := BlockJacobiILU0(a, 16)
	if err != nil {
		b.Fatal(err)
	}
	r := make([]float64, a.Rows)
	z := make([]float64, a.Rows)
	for i := range r {
		r[i] = float64(i % 11)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Apply(z, r); err != nil {
			b.Fatal(err)
		}
	}
}

// TestStageApplyDotAbsBitwise: every stage kind's fused apply — lower,
// unit-lower, upper and diagonal solves, and the multiply — produces the
// output Apply produces and the row reductions a separate vec.DotAbs pass
// over the vector the stage's checksum update reads produces (the solution
// for a solve, the operand for a multiply), bit for bit, in place and out
// of place, at sizes straddling the leaf boundary and with one and three
// weight rows. Every solve shape runs twice: as the literal a test may
// write (its schedule built per call) and as the constructors build it
// (scheduled once) — including the block-Jacobi factors, whose schedule
// walks 16 independent blocks in pairs — and the output is also held to the
// reference loops of internal/sparse, not only to Apply.
func TestStageApplyDotAbsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	bits := math.Float64bits
	for _, n := range []int{1, 127, 128, 129, 4095, 4096, 4097, 10000} {
		a := sparse.DiagDominant(n, 5, int64(n))
		jac, err := Jacobi(a)
		if err != nil {
			t.Fatal(err)
		}
		bj, err := BlockJacobiILU0(a, min(n, 16))
		if err != nil {
			t.Fatal(err)
		}
		lower, upper := a.BlockTriangles(0, n, 1)
		stages := map[string]Stage{
			"lower":      {Op: StageSolve, M: lower, Shape: Lower},
			"lowerunit":  {Op: StageSolve, M: lower, Shape: LowerUnit},
			"upper":      {Op: StageSolve, M: upper, Shape: Upper},
			"diagonal":   jac.Stages()[0],
			"mul":        {Op: StageMul, M: a},
			"bjacobi-l":  bj.Stages()[0],
			"bjacobi-u":  bj.Stages()[1],
			"diag-plain": {Op: StageSolve, M: jac.Stages()[0].M, Shape: Diagonal},
		}
		for _, name := range []string{"lower", "lowerunit", "upper"} {
			st, err := stages[name].scheduled()
			if err != nil {
				t.Fatal(err)
			}
			stages[name+"-scheduled"] = st
		}
		for name, st := range stages {
			for _, k := range []int{1, 3} {
				rows := make([][]float64, k)
				for j := range rows {
					rows[j] = randVecP(rng, n)
				}
				in := randVecP(rng, n)
				want := make([]float64, n)
				if err := st.Apply(want, in); err != nil {
					t.Fatal(err)
				}
				if ref := referenceSolve(t, st, in); ref != nil {
					for i := range ref {
						if bits(want[i]) != bits(ref[i]) {
							t.Fatalf("%s n=%d: Apply out[%d] = %x, reference loop %x", name, n, i, want[i], ref[i])
						}
					}
				}
				reduced := want
				if st.Op == StageMul {
					reduced = in
				}
				lv := vec.NewLeaves(k, n)
				for _, inPlace := range []bool{false, true} {
					if inPlace && st.Op == StageMul {
						continue
					}
					src := append([]float64(nil), in...)
					got := make([]float64, n)
					if inPlace {
						got = src
					}
					if err := st.ApplyDotAbs(got, src, rows, lv); err != nil {
						t.Fatal(err)
					}
					lv.Fold()
					for i := range got {
						if bits(got[i]) != bits(want[i]) {
							t.Fatalf("%s n=%d k=%d inPlace=%v: out[%d] = %x, Apply %x", name, n, k, inPlace, i, got[i], want[i])
						}
					}
					for j := range rows {
						ws, wa := vec.DotAbs(rows[j], reduced)
						if bits(lv.Sum[j]) != bits(ws) || bits(lv.Abs[j]) != bits(wa) {
							t.Fatalf("%s n=%d k=%d inPlace=%v row %d: reductions (%x, %x), DotAbs (%x, %x)",
								name, n, k, inPlace, j, lv.Sum[j], lv.Abs[j], ws, wa)
						}
					}
				}
			}
		}
	}
}

// referenceSolve runs a triangular solve stage through the reference loops
// of internal/sparse; nil for any other stage.
func referenceSolve(t *testing.T, st Stage, in []float64) []float64 {
	t.Helper()
	if st.Op != StageSolve || st.Shape == Diagonal {
		return nil
	}
	out := make([]float64, len(in))
	var err error
	if st.Shape == Upper {
		err = st.M.SolveUpper(out, in)
	} else {
		err = st.M.SolveLower(out, in, st.Shape == LowerUnit)
	}
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStageApplyDotAbsErrors: a singular factor fails the fused solve as
// it fails the plain one.
func TestStageApplyDotAbsErrors(t *testing.T) {
	n := 200
	c := sparse.NewCOO(n, n)
	for i := 0; i < n; i++ {
		if i != 150 {
			c.Add(i, i, 2)
		}
		if i > 0 {
			c.Add(i, i-1, -1)
		}
	}
	l := c.ToCSR()
	u := l.Transpose()
	in := make([]float64, n)
	out := make([]float64, n)
	rows := [][]float64{make([]float64, n)}
	lv := vec.NewLeaves(1, n)
	for name, st := range map[string]Stage{
		"lower":    {Op: StageSolve, M: l, Shape: Lower},
		"upper":    {Op: StageSolve, M: u, Shape: Upper},
		"diagonal": {Op: StageSolve, M: l, Shape: Diagonal},
		"badop":    {Op: StageOp(7), M: l},
	} {
		if st.ApplyDotAbs(out, in, rows, lv) == nil {
			t.Errorf("%s: singular or malformed stage applied without error", name)
		}
	}
	if (Stage{Op: StageSolve, M: l, Shape: Lower}).ApplyDotAbs(out[:n-1], in, rows, lv) == nil {
		t.Error("dimension mismatch applied without error")
	}
}

// TestSolveStagesScheduledAtConstruction: every constructor hands out solve
// stages whose schedule is already built — Apply allocates nothing — and a
// singular factor is refused there, with the row, where a literal reports
// the same thing on its first application.
func TestSolveStagesScheduledAtConstruction(t *testing.T) {
	a := sparse.DiagDominant(300, 5, 7)
	for name, build := range map[string]func() (Preconditioner, error){
		"jacobi":  func() (Preconditioner, error) { return Jacobi(a) },
		"ilu0":    func() (Preconditioner, error) { return ILU0(a) },
		"bjacobi": func() (Preconditioner, error) { return BlockJacobiILU0(a, 4) },
		"ic0":     func() (Preconditioner, error) { return IC0(sparse.Laplacian2D(12, 12)) },
		"ssor":    func() (Preconditioner, error) { return SSOR(a, 1.2) },
	} {
		p, err := build()
		if err != nil {
			t.Fatal(err)
		}
		in, out := make([]float64, p.Dims()), make([]float64, p.Dims())
		for i, st := range p.Stages() {
			if st.Op == StageSolve && st.tri == nil && st.diag == nil {
				t.Errorf("%s stage %d carries no schedule", name, i)
			}
			if st.Op == StageMul {
				continue
			}
			if allocs := testing.AllocsPerRun(5, func() { _ = st.Apply(out, in) }); allocs != 0 {
				t.Errorf("%s stage %d: Apply allocates %v times", name, i, allocs)
			}
		}
	}

	c := sparse.NewCOO(4, 4)
	for i := 0; i < 4; i++ {
		if i != 2 {
			c.Add(i, i, 2)
		}
		if i > 0 {
			c.Add(i, i-1, -1)
		}
	}
	l := c.ToCSR()
	for _, tc := range []struct {
		shape TriShape
		m     *sparse.CSR
		want  string
	}{
		{Lower, l, "sparse: zero diagonal at row 2 in SolveLower"},
		{Upper, l.Transpose(), "sparse: zero diagonal at row 2 in SolveUpper"},
		{Diagonal, l, "precond: zero diagonal at 2"},
		{TriShape(9), l, "unknown stage shape"},
	} {
		lit := Stage{Op: StageSolve, M: tc.m, Shape: tc.shape}
		_, errNew := newStaged("test", 4, lit)
		errApply := lit.Apply(make([]float64, 4), make([]float64, 4))
		for _, err := range []error{errNew, errApply} {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("shape %d: error %v, want one containing %q", tc.shape, err, tc.want)
			}
		}
	}
	if _, err := solveStage(l, LowerUnit); err != nil {
		t.Errorf("unit-lower stage looked at the diagonal: %v", err)
	}
}

// TestSharedStagesApplyConcurrently: a preconditioner's stages are shared
// by every worker that solves on its operator, so their schedules must be
// read-only under Apply (run with -race) and every worker must get the
// same bits. Two kinds of schedule are shared: the 16 independent blocks of
// a block-Jacobi factor, and the lagged segments of a plain ILU(0) of a
// grid operator (one block, bandwidth 40, lag 1).
func TestSharedStagesApplyConcurrently(t *testing.T) {
	circuit := sparse.CircuitLike(2000, 5)
	bj, err := BlockJacobiILU0(circuit, 16)
	if err != nil {
		t.Fatal(err)
	}
	ilu, err := ILU0(sparse.Laplacian2D(40, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []Preconditioner{bj, ilu} {
		n := p.Dims()
		in := randVecP(rand.New(rand.NewSource(3)), n)
		want := make([]float64, n)
		if err := p.Apply(want, in); err != nil {
			t.Fatal(err)
		}
		const workers = 4
		outs := make([][]float64, workers)
		errs := make([]error, workers)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				out := append([]float64(nil), in...)
				lv := vec.NewLeaves(1, n)
				for _, st := range p.Stages() {
					if errs[w] = st.ApplyDotAbs(out, out, [][]float64{in}, lv); errs[w] != nil {
						return
					}
				}
				outs[w] = out
			}(w)
		}
		wg.Wait()
		for w := range outs {
			if errs[w] != nil {
				t.Fatal(errs[w])
			}
			for i := range want {
				if math.Float64bits(outs[w][i]) != math.Float64bits(want[i]) {
					t.Fatalf("%s worker %d: out[%d] = %x, serial Apply %x", p.Name(), w, i, outs[w][i], want[i])
				}
			}
		}
	}
}

// TestStagesShareNoArrayWithA is the contract that lets a stage matrix be
// named by its pointer (checksum.Encoding.StageRows, par's set-up memo):
// no constructor leaves a stage's values, column indices or row pointers
// in A's arrays, so an in-place edit of A — every value, index and row
// pointer of it overwritten here — leaves every stage as it was built, bit
// for bit.
func TestStagesShareNoArrayWithA(t *testing.T) {
	for _, tc := range []struct {
		name  string
		build func(a *sparse.CSR) (Preconditioner, error)
	}{
		{"ILU0", ILU0},
		{"ILU0Block", func(a *sparse.CSR) (Preconditioner, error) { return ILU0Block(a, 30, 70) }},
		{"BlockJacobiILU0", func(a *sparse.CSR) (Preconditioner, error) { return BlockJacobiILU0(a, 4) }},
		{"Jacobi", Jacobi},
		{"SSOR", func(a *sparse.CSR) (Preconditioner, error) { return SSOR(a, 1.2) }},
		{"IC0", IC0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := sparse.Laplacian2D(10, 10)
			m, err := tc.build(a)
			if err != nil {
				t.Fatal(err)
			}
			var built []*sparse.CSR
			for _, st := range m.Stages() {
				built = append(built, st.M.Clone())
			}
			for k := range a.Val {
				a.Val[k], a.ColIdx[k] = math.NaN(), -1
			}
			for i := range a.RowPtr {
				a.RowPtr[i] = -1
			}
			for k, st := range m.Stages() {
				want := built[k]
				if !slices.Equal(st.M.RowPtr, want.RowPtr) || !slices.Equal(st.M.ColIdx, want.ColIdx) ||
					!slices.EqualFunc(st.M.Val, want.Val, func(u, v float64) bool { return math.Float64bits(u) == math.Float64bits(v) }) {
					t.Errorf("stage %d changed when A was overwritten in place", k)
				}
			}
		})
	}
}
