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
// one-rank ABFTPCG storms in exactly four of the eighteen cells: its
// round-off outgrows θ, every verification fires, and each rollback replays
// the same drift. (300, 2) drifts once and converges after one rollback.
// Every other cell converges in core's iteration count. core.BasicPCG with
// ILU(0) runs all eighteen without a single detection: it widens each
// verdict by the carried round-off bound η. The change that brings η to par
// flips this expectation to "no cell storms". Under -short only n ≤ 2 000
// runs.
func TestFixedThetaStormCells(t *testing.T) {
	storms := map[[2]int64]bool{{300, 1}: true, {300, 20160531}: true, {2000, 20160531}: true, {22500, 1}: true}
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

				res, err := ABFTPCG(a, b, 1, Options{})
				wantRollbacks := 0
				if n == 300 && seed == 2 {
					wantRollbacks = 1
				}
				switch {
				case storms[[2]int64{int64(n), seed}]:
					if !errors.Is(err, ErrRollbackStorm) {
						t.Errorf("par: want a rollback storm, got %v after %d rollbacks", err, res.Rollbacks)
					}
				case err != nil:
					t.Errorf("par: %v", err)
				case res.Iterations != cres.Iterations:
					t.Errorf("par: %d iterations, core %d", res.Iterations, cres.Iterations)
				case res.Rollbacks != wantRollbacks:
					t.Errorf("par: %d rollbacks, want %d", res.Rollbacks, wantRollbacks)
				}
			})
		}
	}
}
