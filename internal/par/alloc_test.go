package par

import (
	"fmt"
	"runtime"
	"testing"

	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// rankSolveMallocs is the fewest mallocs, all ranks together, of 25
// fault-free solves capped at 20 iterations and of 25 capped at 40, run
// alternately so both arms see the same runtime state: the tolerance is out
// of reach, so each one runs the whole budget, and the checkpoint interval
// is beyond it, so the i = 0 snapshot is the only one. The fewest, because
// the runtime adds a few mallocs to some solves of its own accord (a rank
// goroutine started on a P with no free descriptor, a formatting buffer
// pool emptied by the collector); no solve allocates less than it must.
func rankSolveMallocs(t *testing.T, solve func(Options) (Result, error), opts Options) (at20, at40 uint64) {
	t.Helper()
	opts.Tol = 1e-300
	opts.CheckpointInterval = 1 << 20
	best := [2]uint64{^uint64(0), ^uint64(0)}
	for run := 0; run < 50; run++ {
		arm := run % 2
		opts.MaxIter = 20 * (1 + arm)
		var res Result
		var err error
		mallocs, _ := heapCost(func() { res, err = solve(opts) })
		if res.Iterations != opts.MaxIter || res.Detections != 0 || res.Converged {
			t.Fatalf("measured solve: %d iterations, %d detections, converged %v (%v); want %d fault-free", res.Iterations, res.Detections, res.Converged, err, opts.MaxIter)
		}
		best[arm] = min(best[arm], mallocs)
	}
	return best[0], best[1]
}

// TestRankIterationZeroAllocs is the zero-allocation contract of the rank
// driver: a solve of 40 iterations allocates exactly what one of
// 20 does, so every iteration in between — boundary verification, the
// recurrence's step, the collectives under both — allocates nothing, for
// every method, basic and two-level, on one rank and on two.
func TestRankIterationZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state allocates on its own")
	}
	a := sparse.Laplacian2D(40, 40)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	solvers := []struct {
		name  string
		solve func(ranks int, o Options) (Result, error)
	}{
		{"pcg", func(r int, o Options) (Result, error) { return ABFTPCG(a, b, r, o) }},
		{"cr", func(r int, o Options) (Result, error) { return ABFTCR(a, b, r, o) }},
		{"bicgstab", func(r int, o Options) (Result, error) { return ABFTBiCGStab(a, b, r, o) }},
	}
	for _, s := range solvers {
		for _, twoLevel := range []bool{false, true} {
			for _, ranks := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/twolevel=%v/r%d", s.name, twoLevel, ranks), func(t *testing.T) {
					solve := func(o Options) (Result, error) { return s.solve(ranks, o) }
					opts := Options{TwoLevel: twoLevel}
					at20, at40 := rankSolveMallocs(t, solve, opts)
					if at40 != at20 {
						t.Errorf("%d mallocs at 40 iterations, %d at 20: the iteration allocates", at40, at20)
					}
				})
			}
		}
	}
}

// heapCost is what f allocates on the heap: mallocs and bytes.
func heapCost(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestRepeatSolveAllocatesNoFactor pins what a repeat solve allocates once
// the memo serves every rank's ILU(0) stages, schedules and encoded stage
// rows (the first solve holds each rank's build as a candidate, the second
// admits it): exactly the mallocs below (the fewest of 25 repeats of a
// fault-free ABFTPCG capped at 20 iterations, for the reason
// rankSolveMallocs gives), and fewer bytes than the first solve by at
// least the rank factors, which a served repeat does not build.
func TestRepeatSolveAllocatesNoFactor(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state allocates on its own")
	}
	a0 := sparse.Laplacian2D(40, 40)
	b := make([]float64, a0.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	opts := Options{Tol: 1e-300, MaxIter: 20, CheckpointInterval: 1 << 20}
	for _, tc := range []struct {
		ranks   int
		mallocs uint64
	}{{1, 63}, {2, 118}} {
		t.Run(fmt.Sprintf("r%d", tc.ranks), func(t *testing.T) {
			part := NnzPartition(a0, tc.ranks)
			var factors uint64
			for r := range tc.ranks {
				lo, hi := part.Range(r)
				_, n := heapCost(func() {
					if _, err := precond.ILU0Block(a0, lo, hi); err != nil {
						t.Fatal(err)
					}
				})
				factors += n
			}
			a := a0.Clone()
			solve := func() {
				if res, err := ABFTPCG(a, b, tc.ranks, opts); res.Iterations != opts.MaxIter || res.Detections != 0 {
					t.Fatalf("%d iterations, %d detections (%v); want %d fault-free", res.Iterations, res.Detections, err, opts.MaxIter)
				}
			}
			_, first := heapCost(solve)
			mallocs, bytes := ^uint64(0), ^uint64(0)
			for range 25 {
				m, n := heapCost(solve)
				mallocs, bytes = min(mallocs, m), min(bytes, n)
			}
			if mallocs != tc.mallocs {
				t.Errorf("repeat solve: %d mallocs, want %d", mallocs, tc.mallocs)
			}
			if first < bytes+factors {
				t.Errorf("repeat solve: %d bytes against the first's %d; want at least the rank factors' %d fewer", bytes, first, factors)
			}
			t.Logf("first %d B, repeat %d B, rank factors %d B", first, bytes, factors)
		})
	}
}
