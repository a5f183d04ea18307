package kernel

import (
	"math"
	"math/rand"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// workerCounts are the pool sizes every determinism test sweeps; 1 maps
// to the nil (serial) pool, 3 and 8 leave partition boundaries that only
// the block-aligned split keeps off the middle of a leaf.
var workerCounts = []int{1, 2, 3, 4, 8}

func poolFor(t *testing.T, workers int) *Pool {
	t.Helper()
	p := NewPool(workers)
	t.Cleanup(p.Close)
	return p
}

func randVec(rng *rand.Rand, n int) []float64 {
	u := make([]float64, n)
	for i := range u {
		// Mixed magnitudes so accumulation order would show up instantly
		// if the tree ever depended on the partition.
		u[i] = (rng.Float64() - 0.5) * math.Exp2(float64(rng.Intn(40)-20))
	}
	return u
}

func bitEq(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// TestReductionsBitwiseAcrossWorkers is the determinism contract test:
// every reduction, at sizes straddling minParallel and the block
// boundary, is bitwise-identical to the serial vec result for every worker
// count and across repeated runs on the same pool.
func TestReductionsBitwiseAcrossWorkers(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{0, 1, 127, 128, 129, 4095, 4096, 100_000}
	for _, workers := range workerCounts {
		p := poolFor(t, workers)
		for _, n := range sizes {
			u, v := randVec(rng, n), randVec(rng, n)
			wfn := checksum.Linear.At
			wantDot := vec.Dot(u, v)
			wantSum, wantAbs := vec.DotAbs(u, v)
			wantWS, wantWA := vec.WeightedSumAbs(u, wfn)
			wantN := vec.Norm2(u)
			wantOS, wantOA := vec.WeightedSumAbs(u, checksum.Ones.At)
			for run := 0; run < 3; run++ {
				if gs, ga := p.SumAbs(u); !bitEq(gs, wantOS) || !bitEq(ga, wantOA) {
					t.Fatalf("workers=%d n=%d run=%d: SumAbs = (%x, %x), ones-weighted (%x, %x)", workers, n, run, gs, ga, wantOS, wantOA)
				}
				if got := p.Dot(u, v); !bitEq(got, wantDot) {
					t.Fatalf("workers=%d n=%d run=%d: Dot = %x, serial %x", workers, n, run, got, wantDot)
				}
				gs, ga := p.DotAbs(u, v)
				if !bitEq(gs, wantSum) || !bitEq(ga, wantAbs) {
					t.Fatalf("workers=%d n=%d run=%d: DotAbs = (%x,%x), serial (%x,%x)", workers, n, run, gs, ga, wantSum, wantAbs)
				}
				gws, gwa := p.WeightedSumAbs(u, wfn)
				if !bitEq(gws, wantWS) || !bitEq(gwa, wantWA) {
					t.Fatalf("workers=%d n=%d run=%d: WeightedSumAbs mismatch", workers, n, run)
				}
				if got := p.Norm2(u); !bitEq(got, wantN) {
					t.Fatalf("workers=%d n=%d run=%d: Norm2 = %x, serial %x", workers, n, run, got, wantN)
				}
			}
		}
	}
}

// TestNorm2Extremes checks the overflow/underflow guard survives the
// parallel path: magnitudes near DBL_MAX and subnormals must match the
// serial dnrm2-style result bitwise.
func TestNorm2Extremes(t *testing.T) {
	n := 8192
	u := make([]float64, n)
	for i := range u {
		switch i % 3 {
		case 0:
			u[i] = 1e300
		case 1:
			u[i] = 5e-324
		default:
			u[i] = 0
		}
	}
	want := vec.Norm2(u)
	for _, workers := range workerCounts {
		p := poolFor(t, workers)
		if got := p.Norm2(u); !bitEq(got, want) {
			t.Fatalf("workers=%d: Norm2 = %g, serial %g", workers, got, want)
		}
	}
}

// TestMulVecBitwise: the pooled product, whose per-worker ranges start on
// leaf boundaries and so walk the operator's row plan window by window, is
// the row loop's on a plan-less view of the same arrays (sparse.CSR doc),
// on the serial pool and on 2, 3 and 8 workers.
func TestMulVecBitwise(t *testing.T) {
	mats := map[string]*sparse.CSR{
		"laplacian2d": sparse.Laplacian2D(40, 40),
		"circuit":     sparse.CircuitLike(3000, 11),
	}
	// A deliberately skewed matrix: one dense row among diagonal rows, so
	// an even row split would be badly unbalanced and the nnz partition
	// has to cut around the heavy row.
	coo := sparse.NewCOO(2000, 2000)
	for i := 0; i < 2000; i++ {
		coo.Add(i, i, 2)
	}
	for j := 0; j < 2000; j++ {
		coo.Add(997, j, 0.001)
	}
	mats["skewed"] = coo.ToCSR()

	rng := rand.New(rand.NewSource(3))
	for name, a := range mats {
		x := randVec(rng, a.Cols)
		want := make([]float64, a.Rows)
		rowLoop := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
		rowLoop.MulVec(want, x)
		for _, workers := range []int{1, 2, 3, 8} {
			p := poolFor(t, workers)
			got := make([]float64, a.Rows)
			for run := 0; run < 2; run++ {
				p.MulVec(a, got, x)
				for i := range got {
					if !bitEq(got[i], want[i]) {
						t.Fatalf("%s workers=%d run=%d: row %d = %x, row loop %x", name, workers, run, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestNnzBounds checks the partition invariants: monotone boundaries
// covering [0, Rows], every interior one on a reduction-leaf boundary, and
// no part holding more than its fair share of nonzeros plus one leaf's
// worth of rows.
func TestNnzBounds(t *testing.T) {
	a := sparse.Laplacian3D(12, 12, 12)
	for _, workers := range []int{2, 4, 7} {
		p := poolFor(t, workers)
		b := p.nnzBounds(a)
		if b[0] != 0 || b[len(b)-1] != a.Rows {
			t.Fatalf("workers=%d: bounds %v do not cover [0,%d]", workers, b, a.Rows)
		}
		maxRow := 0
		for i := 0; i < a.Rows; i++ {
			if w := a.RowPtr[i+1] - a.RowPtr[i]; w > maxRow {
				maxRow = w
			}
		}
		fair := a.NNZ()/workers + vec.Block*maxRow
		for i := 0; i < workers; i++ {
			if b[i] > b[i+1] {
				t.Fatalf("workers=%d: bounds not monotone: %v", workers, b)
			}
			if b[i]%vec.Block != 0 {
				t.Fatalf("workers=%d: boundary %d splits a leaf: %v", workers, b[i], b)
			}
			if got := a.RowPtr[b[i+1]] - a.RowPtr[b[i]]; got > fair {
				t.Fatalf("workers=%d part %d: %d nnz > fair share %d", workers, i, got, fair)
			}
		}
	}
}

func TestVLOBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n := 10_000
	x, y := randVec(rng, n), randVec(rng, n)
	alpha, beta := 1.7, -0.3

	wantAxpy := append([]float64(nil), y...)
	vec.Axpy(wantAxpy, alpha, x)
	wantAxpby := make([]float64, n)
	vec.Axpby(wantAxpby, alpha, x, beta, y)
	wantXpby := make([]float64, n)
	vec.Xpby(wantXpby, x, beta, y)
	wantScale := make([]float64, n)
	vec.Scale(wantScale, alpha, x)

	check := func(t *testing.T, name string, got, want []float64) {
		t.Helper()
		for i := range got {
			if !bitEq(got[i], want[i]) {
				t.Fatalf("%s: element %d = %x, serial %x", name, i, got[i], want[i])
			}
		}
	}
	for _, workers := range workerCounts {
		p := poolFor(t, workers)
		got := append([]float64(nil), y...)
		p.Axpy(got, alpha, x)
		check(t, "Axpy", got, wantAxpy)
		dst := make([]float64, n)
		p.Axpby(dst, alpha, x, beta, y)
		check(t, "Axpby", dst, wantAxpby)
		p.Xpby(dst, x, beta, y)
		check(t, "Xpby", dst, wantXpby)
		p.Scale(dst, alpha, x)
		check(t, "Scale", dst, wantScale)
	}
}

// TestDenseKernelsAreTheGoLoops: Dot, Norm2 and the VLOs against loops
// written out here — one chain per vec.Block under vec.PairwiseSum, its
// square root for the norm, the element-wise expressions — not against the
// serial kernels, on the serial pool and on 2, 3 and 8 workers: the
// lockstep leaf filler and the packed VLO body start wherever a worker's
// range starts, at lengths on and around the four-block, 64-leaf and
// pool-cutover boundaries.
func TestDenseKernelsAreTheGoLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	sizes := []int{0, 1, 127, 128, 129, 511, 512, 513, 640, 4095, 4096, 4099, 8191, 8192, 8193, 8320, 10000, 22500, 100003}
	alpha, beta := 1.7, -0.3
	for _, n := range sizes {
		// Element 1 of an allocation: 8 bytes off its alignment.
		x, y := randVec(rng, n+1)[1:], randVec(rng, n)
		leaves := make([]float64, vec.Blocks(n))
		for b := range leaves {
			leaves[b] = vec.DotBlock(x, y, b)
		}
		wantDot := vec.PairwiseSum(leaves)
		for b := range leaves {
			leaves[b] = vec.DotBlock(x, x, b)
		}
		wantNorm := math.Sqrt(vec.PairwiseSum(leaves)) // x·x is in the norm's window, or 0 at n = 0
		wantAxpy, wantAxpby, wantXpby := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range x {
			wantAxpy[i] = y[i] + alpha*x[i]
			wantAxpby[i] = alpha*x[i] + beta*y[i]
			wantXpby[i] = x[i] + beta*y[i]
		}
		for _, workers := range []int{1, 2, 3, 8} {
			p := poolFor(t, workers)
			if got := p.Dot(x, y); !bitEq(got, wantDot) {
				t.Fatalf("n=%d workers=%d: Dot = %x, PairwiseSum(DotBlock) %x", n, workers, got, wantDot)
			}
			if got := p.Norm2(x); !bitEq(got, wantNorm) {
				t.Fatalf("n=%d workers=%d: Norm2 = %x, √PairwiseSum(DotBlock) %x", n, workers, got, wantNorm)
			}
			check := func(name string, got, want []float64) {
				t.Helper()
				for i := range want {
					if !bitEq(got[i], want[i]) {
						t.Fatalf("n=%d workers=%d %s: element %d = %x, loop %x", n, workers, name, i, got[i], want[i])
					}
				}
			}
			got := append([]float64(nil), y...)
			p.Axpy(got, alpha, x)
			check("Axpy", got, wantAxpy)
			p.Axpby(got, alpha, x, beta, y)
			check("Axpby", got, wantAxpby)
			copy(got, y)
			p.Xpby(got, x, beta, got) // p := z + beta·p, dst the very slice y is
			check("Xpby in place", got, wantXpby)
		}
	}
}

// TestFusedVLOChecksums checks the fused kernels update data and carried
// checksums exactly like the unfused engine sequence.
func TestFusedVLOChecksums(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := 8192
	weights := checksum.Triple
	x, y := randVec(rng, n), randVec(rng, n)
	sx := checksum.Checksums(x, weights)
	sy := checksum.Checksums(y, weights)
	etaX := []float64{1e-18, 2e-18, 3e-18}
	etaY := []float64{4e-18, 5e-18, 6e-18}
	alpha, beta := 0.9, -1.1

	for _, workers := range workerCounts {
		p := poolFor(t, workers)

		gotY := append([]float64(nil), y...)
		gotSy := append([]float64(nil), sy...)
		gotEtaY := append([]float64(nil), etaY...)
		p.AxpyVLO(gotY, alpha, x, gotSy, gotEtaY, sx, etaX)
		wantY := append([]float64(nil), y...)
		vec.Axpy(wantY, alpha, x)
		wantSy := append([]float64(nil), sy...)
		wantEtaY := append([]float64(nil), etaY...)
		checksum.UpdateVLOAxpyBound(wantSy, wantEtaY, alpha, sx, etaX)
		for i := range gotY {
			if !bitEq(gotY[i], wantY[i]) {
				t.Fatalf("workers=%d AxpyVLO: data %d mismatch", workers, i)
			}
		}
		for k := range gotSy {
			if !bitEq(gotSy[k], wantSy[k]) || !bitEq(gotEtaY[k], wantEtaY[k]) {
				t.Fatalf("workers=%d AxpyVLO: checksum slot %d mismatch", workers, k)
			}
		}

		dst := make([]float64, n)
		sDst := make([]float64, len(weights))
		etaDst := make([]float64, len(weights))
		p.AxpbyVLO(dst, alpha, x, beta, y, sDst, etaDst, sx, etaX, sy, etaY)
		wantDst := make([]float64, n)
		vec.Axpby(wantDst, alpha, x, beta, y)
		wantS := make([]float64, len(weights))
		wantEta := make([]float64, len(weights))
		checksum.UpdateVLOAxpbyBound(wantS, wantEta, alpha, sx, etaX, beta, sy, etaY)
		for i := range dst {
			if !bitEq(dst[i], wantDst[i]) {
				t.Fatalf("workers=%d AxpbyVLO: data %d mismatch", workers, i)
			}
		}
		for k := range sDst {
			if !bitEq(sDst[k], wantS[k]) || !bitEq(etaDst[k], wantEta[k]) {
				t.Fatalf("workers=%d AxpbyVLO: checksum slot %d mismatch", workers, k)
			}
		}

		p.XpbyVLO(dst, x, beta, y, sDst, etaDst, sx, etaX, sy, etaY)
		vec.Xpby(wantDst, x, beta, y)
		checksum.UpdateVLOAxpbyBound(wantS, wantEta, 1, sx, etaX, beta, sy, etaY)
		for i := range dst {
			if !bitEq(dst[i], wantDst[i]) {
				t.Fatalf("workers=%d XpbyVLO: data %d mismatch", workers, i)
			}
		}
		for k := range sDst {
			if !bitEq(sDst[k], wantS[k]) || !bitEq(etaDst[k], wantEta[k]) {
				t.Fatalf("workers=%d XpbyVLO: checksum slot %d mismatch", workers, k)
			}
		}
	}
}

// TestMulVecDotAbsBitwise: the fused SpMV's product is the row loop's on a
// plan-less view of the operator (as in TestMulVecBitwise) and its
// row reductions — and with them the Eq. (2) checksum and bound they feed —
// are vec.DotAbs's, bit for bit, on the serial pool and on 2, 3 and 8
// workers (3 and 8 leave partition boundaries that only the block-aligned
// split keeps off the middle of a leaf), at sizes straddling the leaf
// boundary and the serial cutover, with one and three weight rows.
func TestMulVecDotAbsBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, n := range []int{1, 127, 128, 129, 4095, 4096, 4097, 10000} {
		a := sparse.DiagDominant(n, 5, int64(n))
		x := randVec(rng, n)
		wantY := make([]float64, n)
		rowLoop := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
		rowLoop.MulVec(wantY, x)
		for _, weights := range [][]checksum.Weight{checksum.Single, checksum.Triple} {
			enc := checksum.EncodeMatrix(a, weights, checksum.PracticalD(a))
			su := checksum.Checksums(x, weights)
			etaSrc := []float64{1e-17, 1e-17, 1e-17}[:len(weights)]
			wantS := make([]float64, len(weights))
			wantEta := make([]float64, len(weights))
			enc.UpdateMVMBound(wantS, wantEta, x, su, etaSrc)
			for _, workers := range []int{1, 2, 3, 8} {
				p := poolFor(t, workers)
				lv := vec.NewLeaves(len(weights), n)
				y := make([]float64, n)
				for run := 0; run < 2; run++ {
					p.MulVecDotAbs(a, y, x, enc.Rows, lv)
					lv.Fold()
					for i := range y {
						if !bitEq(y[i], wantY[i]) {
							t.Fatalf("n=%d workers=%d run=%d: row %d = %x, row loop %x", n, workers, run, i, y[i], wantY[i])
						}
					}
					gotS := make([]float64, len(weights))
					gotEta := make([]float64, len(weights))
					enc.UpdateMVMBoundFrom(gotS, gotEta, lv.Sum, lv.Abs, su, etaSrc)
					for k, row := range enc.Rows {
						ws, wa := vec.DotAbs(row, x)
						if !bitEq(lv.Sum[k], ws) || !bitEq(lv.Abs[k], wa) {
							t.Fatalf("n=%d workers=%d run=%d row %d: reductions (%x, %x), DotAbs (%x, %x)",
								n, workers, run, k, lv.Sum[k], lv.Abs[k], ws, wa)
						}
						if !bitEq(gotS[k], wantS[k]) || !bitEq(gotEta[k], wantEta[k]) {
							t.Fatalf("n=%d workers=%d run=%d slot %d: carried (%x, %x), UpdateMVMBound (%x, %x)",
								n, workers, run, k, gotS[k], gotEta[k], wantS[k], wantEta[k])
						}
					}
				}
			}
		}
	}
}

func TestNilPoolSerial(t *testing.T) {
	var p *Pool
	p.Close() // must not panic
	u := []float64{1, 2, 3}
	if got, want := p.Dot(u, u), vec.Dot(u, u); !bitEq(got, want) {
		t.Fatalf("nil pool Dot = %g, want %g", got, want)
	}
}

func TestNewPoolSerialThreshold(t *testing.T) {
	for _, w := range []int{-1, 0, 1} {
		if p := NewPool(w); p != nil {
			p.Close()
			t.Fatalf("NewPool(%d) = non-nil, want nil serial pool", w)
		}
	}
	p := NewPool(3)
	if p.workers != 3 {
		t.Fatalf("workers = %d, want 3", p.workers)
	}
	p.Close()
	p.Close() // idempotent
}

func TestLengthMismatchPanics(t *testing.T) {
	p := poolFor(t, 2)
	long := make([]float64, 8192)
	for name, f := range map[string]func(){
		"Dot":    func() { p.Dot(long, long[:1]) },
		"DotAbs": func() { p.DotAbs(long, long[:1]) },
		"Axpy":   func() { p.Axpy(long, 1, long[:1]) },
		"Axpby":  func() { p.Axpby(long, 1, long[:1], 1, long) },
		"Xpby":   func() { p.Xpby(long, long[:1], 1, long) },
		"Scale":  func() { p.Scale(long, 1, long[:1]) },
		"MulVec": func() { p.MulVec(sparse.Laplacian2D(4, 4), long, long) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: no panic on length mismatch", name)
				}
			}()
			f()
		}()
	}
}
