package core

import (
	"math"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

func newTestEngine(t *testing.T, weights []checksum.Weight) (*engine, *Stats) {
	t.Helper()
	a := sparse.Laplacian2D(8, 8)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	var stats Stats
	opts := Options{}
	opts.normalize()
	return newEngine(a, m, weights, &opts, &stats), &stats
}

func fillTracked(v *tracked, f func(i int) float64) {
	for i := range v.data {
		v.data[i] = f(i)
	}
}

func TestEngineWrapAndRecompute(t *testing.T) {
	e, _ := newTestEngine(t, checksum.Single)
	data := make([]float64, e.n)
	for i := range data {
		data[i] = float64(i % 5)
	}
	v := e.wrap("v", data)
	sum, _ := e.sums(v, 0)
	if math.Abs(v.s[0]-sum) > 1e-12 {
		t.Fatalf("wrap checksum %v vs %v", v.s[0], sum)
	}
	if v.eta[0] <= 0 {
		t.Fatalf("wrap must set a positive round-off bound")
	}
	if !e.verify(v) {
		t.Fatalf("freshly wrapped vector must verify")
	}
}

func TestEngineMVMUpdateMatchesDirect(t *testing.T) {
	e, stats := newTestEngine(t, checksum.Single)
	src := e.newTracked("src")
	fillTracked(src, func(i int) float64 { return math.Sin(float64(i)) })
	e.recompute(src)
	dst := e.newTracked("dst")
	e.mvm(0, dst, src)
	// dst's carried checksum must match the directly computed cᵀ(A·src).
	sum, absSum := e.sums(dst, 0)
	if !e.tol.ConsistentBound(sum-dst.s[0], e.n, absSum, dst.eta[0]) {
		t.Fatalf("fault-free MVM left an inconsistency: %v", sum-dst.s[0])
	}
	if stats.ChecksumUpdates == 0 {
		t.Fatalf("update not counted")
	}
}

func TestEnginePCOPreservesConsistency(t *testing.T) {
	e, _ := newTestEngine(t, checksum.Single)
	src := e.newTracked("src")
	fillTracked(src, func(i int) float64 { return 1 / float64(i+1) })
	e.recompute(src)
	dst := e.newTracked("dst")
	if err := e.pco(0, dst, src); err != nil {
		t.Fatal(err)
	}
	if !e.verify(dst) {
		t.Fatalf("fault-free PCO output inconsistent")
	}
}

func TestEngineVLOChain(t *testing.T) {
	e, _ := newTestEngine(t, checksum.Single)
	x := e.newTracked("x")
	y := e.newTracked("y")
	z := e.newTracked("z")
	fillTracked(x, func(i int) float64 { return float64(i % 3) })
	fillTracked(y, func(i int) float64 { return float64(i % 7) })
	e.recompute(x)
	e.recompute(y)
	e.axpy(0, y, 2.5, x)
	e.xpby(0, z, x, -0.5, y)
	e.axpbyInto(0, z, 1.5, z, 0.25, x)
	e.scaleInto(0, z, 3, z)
	for _, v := range []*tracked{x, y, z} {
		if !e.verify(v) {
			t.Fatalf("%s inconsistent after VLO chain", v.name)
		}
	}
}

func TestEngineVerifyRefreshResetsEta(t *testing.T) {
	e, _ := newTestEngine(t, checksum.Single)
	v := e.newTracked("v")
	fillTracked(v, func(i int) float64 { return float64(i) })
	e.recompute(v)
	v.eta[0] = 1e10 // simulate accumulated bound growth
	if !e.verify(v) {
		t.Fatalf("consistent vector failed verification")
	}
	if v.eta[0] >= 1e10 {
		t.Fatalf("verify must refresh the round-off bound, still %v", v.eta[0])
	}
}

func TestEngineVerifyDetectsCorruption(t *testing.T) {
	e, stats := newTestEngine(t, checksum.Single)
	v := e.newTracked("v")
	fillTracked(v, func(i int) float64 { return float64(i) })
	e.recompute(v)
	v.data[5] += 1e3
	if e.verify(v) {
		t.Fatalf("corruption passed verification")
	}
	if stats.Detections == 0 {
		t.Fatalf("detection not counted")
	}
}

func TestInnerCheckLazyMatchesEagerOnSingleError(t *testing.T) {
	for _, eager := range []bool{false, true} {
		weights := checksum.Single
		if eager {
			weights = checksum.Triple
		}
		e, _ := newTestEngine(t, weights)
		if !eager {
			e.initLazyDiag()
		}
		src := e.newTracked("src")
		fillTracked(src, func(i int) float64 { return math.Cos(float64(i)) })
		e.recompute(src)
		q := e.newTracked("q")
		e.mvm(0, q, src)
		const pos, mag = 17, 512.0
		q.data[pos] += mag
		diag := e.innerCheck(q, src)
		if diag.Kind != checksum.SingleError {
			t.Fatalf("eager=%v: diagnosis %v", eager, diag.Kind)
		}
		if diag.Pos != pos {
			t.Fatalf("eager=%v: located %d, want %d", eager, diag.Pos, pos)
		}
		// CorrectSingle already applied inside innerCheck: q is clean.
		if !e.verify(q) {
			t.Fatalf("eager=%v: correction did not restore consistency", eager)
		}
	}
}

func TestInnerCheckEscalatesOnDirtyInput(t *testing.T) {
	for _, eager := range []bool{false, true} {
		weights := checksum.Single
		if eager {
			weights = checksum.Triple
		}
		e, _ := newTestEngine(t, weights)
		if !eager {
			e.initLazyDiag()
		}
		src := e.newTracked("src")
		fillTracked(src, func(i int) float64 { return 1 })
		e.recompute(src)
		src.data[9] += 777 // corrupt AFTER the checksum capture: dirty input
		q := e.newTracked("q")
		e.mvm(0, q, src)
		diag := e.innerCheck(q, src)
		if diag.Kind != checksum.MultipleErrors {
			t.Fatalf("eager=%v: dirty input diagnosed as %v (fake-correction hazard)", eager, diag.Kind)
		}
	}
}

func TestInnerCheckMultipleOutputErrors(t *testing.T) {
	e, _ := newTestEngine(t, checksum.Single)
	e.initLazyDiag()
	src := e.newTracked("src")
	fillTracked(src, func(i int) float64 { return float64(i%4) + 1 })
	e.recompute(src)
	q := e.newTracked("q")
	e.mvm(0, q, src)
	q.data[3] += 100
	q.data[40] -= 55
	if diag := e.innerCheck(q, src); diag.Kind != checksum.MultipleErrors {
		t.Fatalf("two output errors diagnosed as %v", diag.Kind)
	}
}

func TestEngineLemmaDOption(t *testing.T) {
	a := sparse.Laplacian2D(8, 8)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	// 1024 is checksum's Lemma 2 bound on this operator with the ones
	// weight, far above PracticalD's cap of 64.
	var stats Stats
	opts := Options{Encoding: checksum.NewEncoding(a, 1024)}
	opts.normalize()
	e := newEngine(a, m, checksum.Single, &opts, &stats)
	if e.encA.D != 1024 {
		t.Fatalf("the encoding's d = 1024 did not reach the engine: %v", e.encA.D)
	}
	// Even with the huge d, a fault-free chain stays verifiable thanks to
	// the η bounds.
	src := e.newTracked("src")
	fillTracked(src, func(i int) float64 { return math.Sin(float64(i)) })
	e.recompute(src)
	dst := e.newTracked("dst")
	for k := 0; k < 20; k++ {
		e.mvm(0, dst, src)
		e.axpy(0, src, 0.01, dst)
		if !e.verify(src) {
			t.Fatalf("η bounds failed under LemmaD at step %d", k)
		}
	}
}

// TestEngineFusedOpsMatchStagewiseReference: mvm and pco take their
// checksum row reductions inside the product's and the stages' own sweeps
// and carry the stage chain through dst in place. Output, carried checksums
// and η bounds must nevertheless be, bit for bit, what the unfused sequence
// gives — Apply into a fresh buffer, then UpdatePCOBound / UpdateMVMBound
// over it — for solve-only chains (which run entirely in dst) and for
// SSOR's solve·multiply·solve chain (whose multiply detours through the
// one scratch), with one and three weights, serial and pooled.
func TestEngineFusedOpsMatchStagewiseReference(t *testing.T) {
	a := sparse.Laplacian2D(70, 70) // n = 4900: above the pool's serial cutover
	n := a.Rows
	bj, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := precond.IC0(a)
	if err != nil {
		t.Fatal(err)
	}
	jac, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	ssor, err := precond.SSOR(a, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	bits := math.Float64bits
	for _, m := range []precond.Preconditioner{bj, ic, jac, ssor} {
		for _, weights := range [][]checksum.Weight{checksum.Single, checksum.Triple} {
			for _, workers := range []int{1, 3} {
				pool := kernel.NewPool(workers)
				var stats Stats
				opts := Options{Pool: pool}
				opts.normalize()
				e := newEngine(a, m, weights, &opts, &stats)
				src := e.newTracked("src")
				fillTracked(src, func(i int) float64 { return math.Sin(float64(3*i)) * math.Exp2(float64(i%30-15)) })
				e.recompute(src)
				for k := range src.eta {
					src.eta[k] = 1e-17 * float64(k+1)
				}

				// MVM against MulVec + UpdateMVMBound.
				dst := e.newTracked("dst")
				e.mvm(0, dst, src)
				want := make([]float64, n)
				a.MulVec(want, src.data)
				wantS, wantEta := make([]float64, len(weights)), make([]float64, len(weights))
				e.encA.UpdateMVMBound(wantS, wantEta, src.data, src.s, src.eta)
				check := func(what string, got *tracked, data, s, eta []float64) {
					t.Helper()
					for i := range data {
						if bits(got.data[i]) != bits(data[i]) {
							t.Fatalf("%s %s k=%d workers=%d: data[%d] = %x, reference %x", m.Name(), what, len(weights), workers, i, got.data[i], data[i])
						}
					}
					for k := range s {
						if bits(got.s[k]) != bits(s[k]) || bits(got.eta[k]) != bits(eta[k]) {
							t.Fatalf("%s %s k=%d workers=%d: slot %d = (%x, %x), reference (%x, %x)",
								m.Name(), what, len(weights), workers, k, got.s[k], got.eta[k], s[k], eta[k])
						}
					}
				}
				check("mvm", dst, want, wantS, wantEta)

				// PCO against the stage-by-stage chain through fresh buffers.
				if err := e.pco(0, dst, src); err != nil {
					t.Fatal(err)
				}
				in, inS, inEta := src.data, src.s, src.eta
				for k, st := range e.stages {
					out := make([]float64, n)
					if err := st.Apply(out, in); err != nil {
						t.Fatal(err)
					}
					outS, outEta := make([]float64, len(weights)), make([]float64, len(weights))
					switch st.Op {
					case precond.StageSolve:
						e.encStg[k].UpdatePCOBound(outS, outEta, out, inS, inEta)
					case precond.StageMul:
						e.encStg[k].UpdateMVMBound(outS, outEta, in, inS, inEta)
					}
					in, inS, inEta = out, outS, outEta
				}
				check("pco", dst, in, inS, inEta)
				if got, want := stats.ChecksumUpdates, 1+len(e.stages); got != want {
					t.Fatalf("%s: %d checksum updates counted, want %d", m.Name(), got, want)
				}
				if hasMul := m == ssor; (e.scratch != nil) != hasMul {
					t.Fatalf("%s: scratch allocated = %v, want %v", m.Name(), e.scratch != nil, hasMul)
				}
				pool.Close()
			}
		}
	}
}

// TestInnerCorrectionIsExact strikes every element of an MVM output
// q = A·p in turn with a flip of each bit 44–62 and requires every strike
// the two-level inner check locates — lazy and eager diagnosis alike — to
// leave q bitwise the fault-free product: the located element is recomputed
// from its row, not patched by the measured δ1, which carries the rounding
// of a sum that contained the struck value.
func TestInnerCorrectionIsExact(t *testing.T) {
	for _, a := range []*sparse.CSR{
		sparse.Laplacian2D(12, 12),
		sparse.CircuitLike(300, 5),
		sparse.ConvectionDiffusion2D(10, 10, 0.5),
	} {
		for _, lazy := range []bool{true, false} {
			weights := checksum.Triple
			if lazy {
				weights = checksum.Single
			}
			var stats Stats
			opts := Options{}
			opts.normalize()
			e := newEngine(a, nil, weights, &opts, &stats)
			if lazy {
				e.initLazyDiag()
			}
			p, q := e.newTracked("p"), e.newTracked("q")
			fillTracked(p, func(i int) float64 { return 1 + 0.5*math.Sin(float64(3*i+1)) })
			e.recompute(p)
			e.mvm(0, q, p)
			want := append([]float64(nil), q.data...)
			s, eta := append([]float64(nil), q.s...), append([]float64(nil), q.eta...)
			located := 0
			for i := range q.data {
				for bit := 44; bit <= 62; bit++ {
					copy(q.data, want)
					copy(q.s, s)
					copy(q.eta, eta)
					q.data[i] = math.Float64frombits(math.Float64bits(want[i]) ^ 1<<bit)
					if e.innerCheck(q, p).Kind != checksum.SingleError {
						continue
					}
					located++
					for j := range want {
						if math.Float64bits(q.data[j]) != math.Float64bits(want[j]) {
							t.Fatalf("n=%d lazy=%v: bit %d at %d corrected to q[%d] = %v, fault-free %v",
								a.Rows, lazy, bit, i, j, q.data[j], want[j])
						}
					}
				}
			}
			if located < a.Rows {
				t.Errorf("n=%d lazy=%v: only %d strikes located", a.Rows, lazy, located)
			}
		}
	}
}
