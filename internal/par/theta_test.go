package par

import (
	"errors"
	"fmt"
	"testing"

	"newsum/internal/core"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// TestFixedThetaStormCells pins where the fixed verification threshold θ
// fails fault-free. On CircuitLike(n, seed) with b = ones and zero Options,
// ABFTPCG at 1, 2 and 4 ranks storms in exactly one of the eighteen cells,
// (2000, 20160531): its first verification, at iteration 1, fires, and each
// rollback replays the same drift. Every other cell converges without a
// detection, at one rank in core's iteration count (more ranks cut the
// ILU(0) into rank blocks, a weaker preconditioner). core.BasicPCG with ILU(0) runs all
// eighteen without a single detection: it widens each verdict by the carried
// round-off bound η. The change that brings η to par flips this expectation
// to "no cell storms". (While the Eq. (2) row dots summed left to right, at
// one rank four cells stormed and (300, 2) rolled back once.) Under -short
// only n ≤ 2 000 runs.
func TestFixedThetaStormCells(t *testing.T) {
	for _, n := range []int{300, 1000, 2000, 5000, 10000, 22500} {
		if testing.Short() && n > 2000 {
			continue
		}
		for _, seed := range []int64{1, 2, 20160531} {
			t.Run(fmt.Sprintf("n=%d/seed=%d", n, seed), func(t *testing.T) {
				a := sparse.CircuitLike(n, seed)
				b := make([]float64, a.Rows)
				for i := range b {
					b[i] = 1
				}
				m, err := precond.ILU0(a)
				if err != nil {
					t.Fatal(err)
				}
				cres, err := core.BasicPCG(a, m, b, core.Options{})
				if err != nil {
					t.Fatalf("core: %v", err)
				}
				if cres.Stats.Detections != 0 {
					t.Errorf("core: %d detections, want 0", cres.Stats.Detections)
				}

				storm := n == 2000 && seed == 20160531
				for _, ranks := range []int{1, 2, 4} {
					res, err := ABFTPCG(a, b, ranks, Options{})
					switch {
					case storm:
						if !errors.Is(err, ErrRollbackStorm) {
							t.Errorf("%d ranks: want a rollback storm, got %v after %d rollbacks", ranks, err, res.Rollbacks)
						} else if first := firstDetection(res.Trace); first != 1 {
							t.Errorf("%d ranks: first detection at iteration %d, want 1", ranks, first)
						}
					case err != nil:
						t.Errorf("%d ranks: %v", ranks, err)
					case ranks == 1 && res.Iterations != cres.Iterations:
						t.Errorf("%d ranks: %d iterations, core %d", ranks, res.Iterations, cres.Iterations)
					case res.Detections != 0:
						t.Errorf("%d ranks: %d detections, want 0", ranks, res.Detections)
					}
				}
			})
		}
	}
}

// firstDetection returns the iteration of the first detection in a team
// timeline, or -1 when there is none.
func firstDetection(trace []core.TraceEvent) int {
	for _, ev := range trace {
		if ev.Kind == core.EvDetection {
			return ev.Iteration
		}
	}
	return -1
}
