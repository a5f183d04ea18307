package core

import (
	"errors"
	"math"
	"testing"

	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

// steadyStateAllocs measures the heap allocations of one protected solve
// capped at exactly iters iterations: the tolerance is unreachably tight,
// so the solve always runs the full budget and returns ErrNotConverged.
// Setup (engine, tracked vectors, the i=0 checkpoint, the final error) is
// a constant, so comparing the count at k and 2k iterations isolates the
// per-iteration cost.
func steadyStateAllocs(t *testing.T, iters int, pool *kernel.Pool,
	run func(opts Options) (Result, error)) float64 {
	t.Helper()
	opts := Options{}
	opts.Tol = 1e-300 // unreachable: the solve always exhausts MaxIter
	opts.MaxIter = iters
	opts.DetectInterval = 1
	opts.CheckpointInterval = 1 << 20 // i=0 only: checkpoints stay out of the steady state
	opts.Pool = pool
	var failed error
	allocs := testing.AllocsPerRun(3, func() {
		res, err := run(opts)
		if !errors.Is(err, solver.ErrNotConverged) {
			failed = err
		} else if res.Iterations != iters {
			failed = errors.New("solve stopped before exhausting MaxIter")
		}
	})
	if failed != nil {
		t.Fatalf("measured solve did not run the full %d iterations: %v", iters, failed)
	}
	return allocs
}

// TestSolveSteadyStateZeroAllocs asserts the steady-state allocation
// contract end to end: once a protected solve is warmed up, every further
// iteration performs zero heap allocations — serial and on a worker pool,
// for every method the driver runs (PCG, BiCGStab, CR, Jacobi, Chebyshev,
// GMRES), every scheme that brings steady-state verbs or a guard of its own
// (basic, two-level lazy and eager-triple, online-MV, orthogonality), and
// both preconditioner kinds: the diagonal stage and the triangular
// schedule of block-Jacobi ILU(0). It measures the real heap, so it sees
// what escape analysis decides — closure capture, interface boxing,
// append growth — through every interface call of the driver.
func TestSolveSteadyStateZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement solves are not short")
	}
	if raceEnabled {
		t.Skip("AllocsPerRun under the race detector counts instrumentation allocations")
	}
	a := sparse.Laplacian3D(17, 17, 17) // n = 4913 > the kernel's serial cutover
	n := a.Rows
	b := make([]float64, n)
	for i := range b {
		b[i] = 1 + float64(i%7)/7
	}
	m, err := precond.Jacobi(a)
	if err != nil {
		t.Fatal(err)
	}
	// Every benchmark workload preconditions with block-Jacobi ILU(0),
	// whose application runs the triangular-solve schedule.
	ilu, err := precond.BlockJacobiILU0(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	// The spectrum of D⁻¹A for the 7-point Laplacian on a 17³ grid is
	// 1 ± cos(π/18) at its ends.
	lmin, lmax := 1-math.Cos(math.Pi/18), 1+math.Cos(math.Pi/18)
	eager := func(opts Options) Options { opts.EagerTriple = true; return opts }

	solvers := []struct {
		name string
		run  func(opts Options) (Result, error)
	}{
		{"BasicPCG", func(opts Options) (Result, error) { return BasicPCG(a, m, b, opts) }},
		{"BasicPCG-ILU0", func(opts Options) (Result, error) { return BasicPCG(a, ilu, b, opts) }},
		{"TwoLevelPCG", func(opts Options) (Result, error) { return TwoLevelPCG(a, m, b, opts) }},
		{"TwoLevelPCG-eager", func(opts Options) (Result, error) { return TwoLevelPCG(a, m, b, eager(opts)) }},
		{"OrthoPCG", func(opts Options) (Result, error) { return OrthoPCG(a, m, b, opts) }},
		{"BasicPBiCGSTAB", func(opts Options) (Result, error) { return BasicPBiCGSTAB(a, m, b, opts) }},
		{"TwoLevelPBiCGSTAB", func(opts Options) (Result, error) { return TwoLevelPBiCGSTAB(a, m, b, opts) }},
		{"BasicCR", func(opts Options) (Result, error) { return BasicCR(a, b, opts) }},
		{"BasicJacobi", func(opts Options) (Result, error) { return BasicJacobi(a, b, opts) }},
		{"BasicChebyshev", func(opts Options) (Result, error) { return BasicChebyshev(a, m, b, lmin, lmax, opts) }},
		// GMRES ignores CheckpointInterval — it snapshots at every restart
		// boundary — so a short restart length pulls the checkpoint-save and
		// triangular-solve paths into the measured steady state. This pins the
		// ISSUE 10 fix that hoisted the y workspace out of the restart loop
		// and the Store's double-buffered snapshot reuse.
		{"BasicGMRES", func(opts Options) (Result, error) { return BasicGMRES(a, m, b, 8, opts) }},
		// The online-MV baseline's duplicated VLOs keep the operand they
		// overwrite in a buffer of the backend's, so its overhead in
		// Figs. 6–7 carries no allocator or GC time.
		{"OnlineMVPCG", func(opts Options) (Result, error) { return OnlineMVPCG(a, m, b, opts) }},
		{"OnlineMVPBiCGSTAB", func(opts Options) (Result, error) { return OnlineMVPBiCGSTAB(a, m, b, opts) }},
	}
	const k = 24
	for _, workers := range []int{0, 4} {
		var pool *kernel.Pool
		mode := "serial"
		if workers > 0 {
			pool = kernel.NewPool(workers)
			defer pool.Close()
			mode = "pool4"
		}
		for _, s := range solvers {
			t.Run(s.name+"/"+mode, func(t *testing.T) {
				atK := steadyStateAllocs(t, k, pool, s.run)
				at2K := steadyStateAllocs(t, 2*k, pool, s.run)
				// A genuine steady-state allocation adds at least k allocs
				// to the longer run; the slack of 2 absorbs measurement
				// jitter (AllocsPerRun floors its per-run average, and the
				// per-solve fmt error draws scratch from a sync.Pool the GC
				// occasionally empties) without masking a real leak.
				if delta := at2K - atK; delta > 2 {
					t.Errorf("steady state allocates: %v allocs at %d iters, %v at %d (%.2f allocs/iteration, want 0)",
						atK, k, at2K, 2*k, delta/k)
				}
			})
		}
	}
}
