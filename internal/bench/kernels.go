package bench

import (
	"fmt"
	"io"
	"math"
	"text/tabwriter"
	"time"

	"newsum/internal/checksum"
	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// The kernels experiment: workers × n × kernel sweep over the
// internal/kernel shared-memory layer, measuring wall time against the
// serial baseline and verifying — inside the benchmark itself — that every
// parallel result is bitwise-identical to the serial one (the determinism
// contract the ABFT checksum comparison depends on). Speedups are real
// thread-level parallelism: on a single-core machine expect ≈1× with a
// small scheduling overhead, never different bits.

// KernelPoint is one (kernel, n, workers) measurement.
type KernelPoint struct {
	Kernel  string
	N       int
	NNZ     int
	Workers int
	Reps    int
	Seconds float64 // total for Reps repetitions
	Serial  float64 // serial seconds for the same Reps
	Speedup float64
	Bitwise bool // result identical to its reference, bit for bit: the serial kernel, which must itself match the row loop on a plan-less view of the operator (SpMV rows) or the Go loop on the same arrays (dot, norm2, the VLOs); the reference loops for trisolve
}

// kernelCase is one benchmarked kernel: run executes one repetition on
// the pool and returns a result fingerprint (a value or a checksum over
// an output vector) used for the bitwise comparison against serial.
type kernelCase struct {
	name string
	run  func(p *kernel.Pool) uint64
	// ref is the kernel's reference on the same arrays: for the kernels
	// that multiply by the operator, the same run on a plan-less view of it
	// (sparse.CSR doc: the row loop); for the dense kernels, the Go loop
	// written out below. Serial against pooled alone would pass with both
	// sides wrong.
	ref func(p *kernel.Pool) uint64
	// reset, for a kernel that updates an operand in place, restores it
	// before each series of repetitions, so that every series and the
	// reference leave the same bits behind.
	reset func()
	// out, for a kernel that writes a vector, is that vector: a series
	// folds all of it into its fingerprint once the clock has stopped.
	out []float64
}

// norm2ByLoop is vec.Norm2 with every leaf taken by the scalar loop the
// package keeps as its reference: one pass per block, a running scale and
// the sum of squares relative to it, folded by vec.PairwiseNorm2.
func norm2ByLoop(u []float64) float64 {
	nb := vec.Blocks(len(u))
	scales, ssqs := make([]float64, nb), make([]float64, nb)
	for b := range scales {
		scale, ssq := 0.0, 1.0
		for _, x := range u[b*vec.Block : min((b+1)*vec.Block, len(u))] {
			if math.Float64bits(x)<<1 == 0 { // ±0: the loop's skip
				continue
			}
			ax := math.Abs(x)
			if scale < ax {
				r := scale / ax
				ssq = 1 + ssq*r*r
				scale = ax
			} else {
				r := ax / scale
				ssq += r * r
			}
		}
		scales[b], ssqs[b] = scale, ssq
	}
	return vec.PairwiseNorm2(scales, ssqs)
}

// dotByBlock is vec.Dot with one vec.DotBlock call per leaf.
func dotByBlock(u, v []float64) float64 {
	leaves := make([]float64, vec.Blocks(len(u)))
	for b := range leaves {
		leaves[b] = vec.DotBlock(u, v, b)
	}
	return vec.PairwiseSum(leaves)
}

// fingerprint folds a float64 slice into a 64-bit FNV-1a over the raw
// bit patterns, so any single-bit divergence flips the fingerprint.
func fingerprint(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		b := math.Float64bits(x)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// kernelCases builds the benchmark set for one operator size: SpMV, Dot,
// the fused SpMV + Eq. (2) update + Dot (the PCG hot sequence), the row
// reduction and the all-ones verification pair (the two (Σ, Σ|·|) leaves),
// the three VLOs and norm2 over the 3D Laplacian.
func kernelCases(a *sparse.CSR, x, y, z []float64) []kernelCase {
	n := a.Rows
	enc := checksum.EncodeMatrix(a, checksum.Single, checksum.PracticalD(a))
	su := checksum.Checksums(x, checksum.Single)
	eta := make([]float64, 1)
	sOut := make([]float64, 1)
	etaOut := make([]float64, 1)
	lv := vec.NewLeaves(1, n)
	spmv := func(m *sparse.CSR) func(*kernel.Pool) uint64 {
		return func(p *kernel.Pool) uint64 {
			p.MulVec(m, y, x)
			return fingerprint(y[:min(n, 1024)])
		}
	}
	spmvDot := func(m *sparse.CSR) func(*kernel.Pool) uint64 {
		return func(p *kernel.Pool) uint64 {
			// The PCG inner step: q := A·p, then pᵀq, plus the Eq. (2)
			// checksum update — the single hottest sequence in the repo.
			// The update's row reduction rides the product's sweep; the
			// fingerprint covers the product, the folded reduction and the
			// carried checksum and bound they produce.
			p.MulVecDotAbs(m, y, x, enc.Rows, lv)
			lv.Fold()
			enc.UpdateMVMBoundFrom(sOut, etaOut, lv.Sum, lv.Abs, su, eta)
			return fingerprint(y[:min(n, 1024)]) ^ math.Float64bits(p.Dot(x, y)) ^
				math.Float64bits(sOut[0]) ^ math.Float64bits(etaOut[0])<<1
		}
	}
	rowLoop := &sparse.CSR{Rows: a.Rows, Cols: a.Cols, RowPtr: a.RowPtr, ColIdx: a.ColIdx, Val: a.Val}
	return []kernelCase{
		{name: "spmv", run: spmv(a), ref: spmv(rowLoop)},
		{name: "dot", run: func(p *kernel.Pool) uint64 {
			return math.Float64bits(p.Dot(x, z))
		}, ref: func(*kernel.Pool) uint64 { return math.Float64bits(dotByBlock(x, z)) }},
		{name: "spmv+dot", run: spmvDot(a), ref: spmvDot(rowLoop)},
		{name: "dotabs", run: func(p *kernel.Pool) uint64 {
			// One Eq. 2/4 row reduction on its own.
			sum, abs := p.DotAbs(x, z)
			return math.Float64bits(sum) ^ math.Float64bits(abs)<<1
		}},
		{name: "sumabs", run: func(p *kernel.Pool) uint64 {
			// The all-ones verification pair.
			sum, abs := p.SumAbs(z)
			return math.Float64bits(sum) ^ math.Float64bits(abs)<<1
		}},
		{name: "axpy", run: func(p *kernel.Pool) uint64 {
			p.Axpy(y, 1e-9, x)
			return 0
		}, ref: func(*kernel.Pool) uint64 {
			for i, v := range x {
				y[i] += 1e-9 * v
			}
			return 0
		}, reset: func() { copy(y, z) }, out: y},
		{name: "xpby", run: func(p *kernel.Pool) uint64 {
			p.Xpby(y, x, 0.5, z)
			return 0
		}, ref: func(*kernel.Pool) uint64 {
			for i := range y {
				y[i] = x[i] + 0.5*z[i]
			}
			return 0
		}, out: y},
		{name: "axpby", run: func(p *kernel.Pool) uint64 {
			p.Axpby(y, 1e-9, x, 0.5, z)
			return 0
		}, ref: func(*kernel.Pool) uint64 {
			for i := range y {
				y[i] = 1e-9*x[i] + 0.5*z[i]
			}
			return 0
		}, out: y},
		{name: "norm2", run: func(p *kernel.Pool) uint64 {
			return math.Float64bits(p.Norm2(x))
		}, ref: func(*kernel.Pool) uint64 { return math.Float64bits(norm2ByLoop(x)) }},
	}
}

// triSolvePoints times the triangular-solve schedule on the block-Jacobi
// ILU(0) factors of a (16 blocks, walked two at a time): "trisolve" is the
// L then U solve of one preconditioner application, "trisolve+dotabs" the
// same with the Eq. (4) row reductions riding each solve. The solves do not
// go through the pool, so each is one workers=1 point; its bitwise flag
// compares solution (and folded reductions) with the reference loops
// sparse.CSR.SolveLower / SolveUpper (and vec.DotAbs), not with itself.
func triSolvePoints(a *sparse.CSR, b []float64, reps int) ([]KernelPoint, error) {
	n := a.Rows
	m, err := precond.BlockJacobiILU0(a, min(n, 16))
	if err != nil {
		return nil, err
	}
	stages := m.Stages()
	l, u := stages[0], stages[1]
	w := make([]float64, n)
	for i := range w {
		w[i] = 1 + float64(i%5)/4
	}
	rows := [][]float64{w}
	lv := vec.NewLeaves(1, n)
	y := make([]float64, n)
	var sums [4]float64 // Σ and Σ|·| after L, then after U

	// The reference: the substitution loops and a separate reduction pass.
	var wantSums [4]float64
	if err := l.M.SolveLower(y, b, true); err != nil {
		return nil, err
	}
	wantSums[0], wantSums[1] = vec.DotAbs(w, y)
	if err := u.M.SolveUpper(y, y); err != nil {
		return nil, err
	}
	wantSums[2], wantSums[3] = vec.DotAbs(w, y)
	want := fingerprint(y)

	cases := []struct {
		name string
		run  func() error
	}{
		{"trisolve", func() error {
			if err := l.Apply(y, b); err != nil {
				return err
			}
			return u.Apply(y, y)
		}},
		{"trisolve+dotabs", func() error {
			if err := l.ApplyDotAbs(y, b, rows, lv); err != nil {
				return err
			}
			lv.Fold()
			sums[0], sums[1] = lv.Sum[0], lv.Abs[0]
			if err := u.ApplyDotAbs(y, y, rows, lv); err != nil {
				return err
			}
			lv.Fold()
			sums[2], sums[3] = lv.Sum[0], lv.Abs[0]
			return nil
		}},
	}
	var points []KernelPoint
	for _, c := range cases {
		sums = wantSums // the plain solve leaves them alone
		vec.Zero(y)
		start := time.Now()
		for r := 0; r < reps; r++ {
			if err := c.run(); err != nil {
				return nil, err
			}
		}
		sec := time.Since(start).Seconds()
		points = append(points, KernelPoint{
			Kernel: c.name, N: n, NNZ: l.M.NNZ() + u.M.NNZ(), Workers: 1, Reps: reps,
			Seconds: sec, Serial: sec, Speedup: 1,
			Bitwise: fingerprint(y) == want && fingerprint(sums[:]) == fingerprint(wantSums[:]),
		})
	}
	return points, nil
}

// MeasureKernels sweeps kernel × workers at one operator size nside³
// (3D Laplacian) and returns one point per combination, including the
// workers=1 serial baselines, and the two triangular-solve points.
func MeasureKernels(nside int, workerCounts []int, reps int) ([]KernelPoint, error) {
	a := sparse.Laplacian3D(nside, nside, nside)
	n := a.Rows
	x := make([]float64, n)
	z := make([]float64, n)
	for i := range x {
		x[i] = 1 + float64(i%13)/13
		z[i] = 1 - float64(i%7)/14
	}
	y := make([]float64, n)

	var points []KernelPoint
	for _, kc := range kernelCases(a, x, y, z) {
		// series runs reps repetitions of f from the case's reset state.
		series := func(f func(*kernel.Pool) uint64, p *kernel.Pool) (fp uint64, sec float64) {
			if kc.reset != nil {
				kc.reset()
			}
			start := time.Now()
			for r := 0; r < reps; r++ {
				fp = f(p)
			}
			sec = time.Since(start).Seconds()
			return fp ^ fingerprint(kc.out), sec
		}
		// Serial: timing baseline and bitwise fingerprint, itself held
		// against the reference where the case has one.
		serialFP, serialSec := series(kc.run, nil)
		serialOK := true
		if kc.ref != nil {
			refFP, _ := series(kc.ref, nil)
			serialOK = refFP == serialFP
		}

		for _, workers := range workerCounts {
			if workers <= 1 {
				points = append(points, KernelPoint{
					Kernel: kc.name, N: n, NNZ: a.NNZ(), Workers: 1, Reps: reps,
					Seconds: serialSec, Serial: serialSec, Speedup: 1, Bitwise: serialOK,
				})
				continue
			}
			p := kernel.NewPool(workers)
			fp, sec := series(kc.run, p)
			p.Close()
			pt := KernelPoint{
				Kernel: kc.name, N: n, NNZ: a.NNZ(), Workers: workers, Reps: reps,
				Seconds: sec, Serial: serialSec, Bitwise: fp == serialFP && serialOK,
			}
			if sec > 0 {
				pt.Speedup = serialSec / sec
			}
			points = append(points, pt)
		}
	}
	tri, err := triSolvePoints(a, z, reps)
	return append(points, tri...), err
}

// KernelsSweep runs MeasureKernels for every operator size.
func KernelsSweep(nsides, workerCounts []int, reps int) ([]KernelPoint, error) {
	var points []KernelPoint
	for _, ns := range nsides {
		pts, err := MeasureKernels(ns, workerCounts, reps)
		if err != nil {
			return nil, err
		}
		points = append(points, pts...)
	}
	return points, nil
}

// VerifyKernelsBitwise reports an error naming the first sweep point
// whose result diverged from its reference — the serial kernel for a pooled
// point, the reference substitution loops for a triangular solve — the hard
// failure mode the determinism contract forbids.
func VerifyKernelsBitwise(points []KernelPoint) error {
	for _, p := range points {
		if !p.Bitwise {
			return fmt.Errorf("bench: kernel %s n=%d workers=%d diverged from its reference bits",
				p.Kernel, p.N, p.Workers)
		}
	}
	return nil
}

// nsPerElem is the point's wall time per repetition and vector element.
func (p KernelPoint) nsPerElem() float64 {
	return p.Seconds / float64(p.Reps) / float64(p.N) * 1e9
}

// WriteKernelsTable renders the sweep in the standard report format, with
// the full-block leaves and VLO body this binary links (vec.LeafKernel)
// under the title.
func WriteKernelsTable(out io.Writer, title string, points []KernelPoint) error {
	var s sink
	s.println(out, title)
	s.printf(out, "linked kernels (dotabs, sumabs and the fused update; norm2; axpy, xpby, axpby): %s\n", vec.LeafKernel)
	tw := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	s.println(tw, "kernel\tn\tnnz\tworkers\treps\ttime(s)\tns/elem\tserial(s)\tspeedup\tbitwise")
	for _, p := range points {
		s.printf(tw, "%s\t%d\t%d\t%d\t%d\t%.4f\t%.3f\t%.4f\t%.2f\t%s\n",
			p.Kernel, p.N, p.NNZ, p.Workers, p.Reps, p.Seconds, p.nsPerElem(), p.Serial, p.Speedup, yesNo(p.Bitwise))
	}
	s.flush(tw)
	return s.err
}

// WriteKernelsCSV emits the sweep as CSV with one row per point.
func WriteKernelsCSV(w io.Writer, points []KernelPoint) error {
	var s sink
	s.println(w, "kernel,n,nnz,workers,reps,seconds,ns_per_elem,serial_seconds,speedup,bitwise")
	for _, p := range points {
		s.printf(w, "%s,%d,%d,%d,%d,%.6f,%.4f,%.6f,%.4f,%s\n",
			p.Kernel, p.N, p.NNZ, p.Workers, p.Reps, p.Seconds, p.nsPerElem(), p.Serial, p.Speedup, yesNo(p.Bitwise))
	}
	return s.err
}
