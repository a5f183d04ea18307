package par

import (
	"fmt"
	"runtime"
	"testing"

	"newsum/internal/sparse"
)

// rankSolveMallocs is the fewest mallocs, all ranks together, of 25
// fault-free solves capped at iters iterations: the tolerance is out of
// reach, so each one runs the whole budget, and the checkpoint interval
// is beyond it, so the i = 0 snapshot is the only one. The fewest, because
// the runtime adds a few mallocs to some solves of its own accord (a rank
// goroutine started on a P with no free descriptor, a formatting buffer
// pool emptied by the collector); no solve allocates less than it must.
func rankSolveMallocs(t *testing.T, iters int, solve func(Options) (Result, error), opts Options) uint64 {
	t.Helper()
	opts.Tol = 1e-300
	opts.MaxIter = iters
	opts.CheckpointInterval = 1 << 20
	var before, after runtime.MemStats
	best := ^uint64(0)
	for run := 0; run < 25; run++ {
		runtime.ReadMemStats(&before)
		res, err := solve(opts)
		runtime.ReadMemStats(&after)
		if res.Iterations != iters || res.Detections != 0 || res.Converged {
			t.Fatalf("measured solve: %d iterations, %d detections, converged %v (%v); want %d fault-free", res.Iterations, res.Detections, res.Converged, err, iters)
		}
		best = min(best, after.Mallocs-before.Mallocs)
	}
	return best
}

// TestRankIterationZeroAllocs is the dynamic half of the hotalloc gate on
// the rank driver: a solve of 40 iterations allocates exactly what one of
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
					at20 := rankSolveMallocs(t, 20, solve, opts)
					at40 := rankSolveMallocs(t, 40, solve, opts)
					if at40 != at20 {
						t.Errorf("%d mallocs at 40 iterations, %d at 20: the iteration allocates", at40, at20)
					}
				})
			}
		}
	}
}
