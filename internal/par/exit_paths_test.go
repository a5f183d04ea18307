package par

import (
	"fmt"
	"hash/fnv"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"newsum/internal/sparse"
)

// TestExitPathsMatchRecordedParent pins the branches a fault-free table
// never reaches: the rollback storm, the iteration cap, a poisoned
// checkpoint restored by a rollback, the x0 exit on a zero right-hand side,
// and the breakdown and forward-recovery exits. Each row holds the error
// text, every Result counter, every CommStats counter and the sequence of
// trace kinds, for the three solvers at 1 and 3 ranks, against a table
// recorded from the commit before the solvers shared one rank driver
// (testdata/exit_paths.golden; -update rewrites it and is only honest on a
// tree whose control flow is trusted). It was re-recorded once, when every
// rank began running core's driver, in the fields where core's bookkeeping
// differed: error text, detections under the forward tier, CR's x0 exit and
// its two-level iteration clock.
func TestExitPathsMatchRecordedParent(t *testing.T) {
	a := sparse.Laplacian2D(16, 16)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + math.Sin(float64(3*i))
	}
	zero := make([]float64, a.Rows)
	solvers := []struct {
		name string
		run  func(rhs []float64, ranks int, o Options) (Result, error)
	}{
		{"pcg", func(rhs []float64, r int, o Options) (Result, error) { return ABFTPCG(a, rhs, r, o) }},
		{"bicgstab", func(rhs []float64, r int, o Options) (Result, error) { return ABFTBiCGStab(a, rhs, r, o) }},
		{"cr", func(rhs []float64, r int, o Options) (Result, error) { return ABFTCR(a, rhs, r, o) }},
	}
	paths := []struct {
		name string
		rhs  []float64
		opts func(ranks int) Options
	}{
		{"storm", b, func(r int) Options {
			return Options{Tol: 1e-10, MaxRollbacks: 1, Faults: []Fault{
				{Iteration: 3, Rank: r - 1, Index: 1},
				{Iteration: 6, Rank: 0, Index: 2},
			}}
		}},
		{"maxiter", b, func(int) Options { return Options{Tol: 1e-10, MaxIter: 3} }},
		{"checkpoint", b, func(r int) Options {
			return Options{Tol: 1e-10, MaxRollbacks: 3, Faults: []Fault{
				{Iteration: 10, Rank: r - 1, Index: 3, Target: TargetCheckpoint},
				{Iteration: 12, Rank: 0, Index: 5},
			}}
		}},
		{"zero-rhs", zero, func(int) Options { return Options{} }},
		{"breakdown", b, func(r int) Options {
			return Options{Tol: 1e-10, DetectInterval: 5, MaxRollbacks: 1, Faults: []Fault{
				{Iteration: 2, Rank: r - 1, Index: 1, BitFlip: true, Bit: 62},
				{Iteration: 7, Rank: 0, Index: 1, BitFlip: true, Bit: 62},
			}}
		}},
		{"forward-storm", b, func(r int) Options {
			return Options{Tol: 1e-10, ForwardRecovery: true, MaxRollbacks: 1, Faults: []Fault{
				{Iteration: 3, Rank: r - 1, Index: 1},
				{Iteration: 9, Rank: 0, Index: 2},
				{Iteration: 14, Rank: 0, Index: 4},
			}}
		}},
		{"forward", b, func(r int) Options {
			return Options{Tol: 1e-10, ForwardRecovery: true, DetectInterval: 2, Faults: []Fault{
				{Iteration: 3, Rank: r - 1, Index: 1},
				{Iteration: 8, Rank: 0, Index: 2, Target: TargetChecksum},
				{Iteration: 12, Rank: 0, Index: 4, BitFlip: true, Bit: 62},
			}}
		}},
		{"twolevel-storm", b, func(r int) Options {
			return Options{Tol: 1e-10, TwoLevel: true, MaxRollbacks: 1, Faults: []Fault{
				{Iteration: 3, Rank: r - 1, Index: 1}, {Iteration: 3, Rank: r - 1, Index: 4},
				{Iteration: 6, Rank: 0, Index: 1}, {Iteration: 6, Rank: 0, Index: 4},
			}}
		}},
	}
	var sb strings.Builder
	for _, s := range solvers {
		for _, p := range paths {
			for _, ranks := range []int{1, 3} {
				res, err := s.run(p.rhs, ranks, p.opts(ranks))
				fmt.Fprintf(&sb, "%s/%s/r%d: %s\n", s.name, p.name, ranks, exitRow(res, err))
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "exit_paths.golden"), sb.String())
}

// exitRow renders one solve's outcome: error text, solution hash, every
// counter of Result and CommStats, and the trace kinds in order.
func exitRow(res Result, err error) string {
	errText := "<nil>"
	if err != nil {
		errText = err.Error()
	}
	h := fnv.New64a()
	for _, x := range res.X {
		v := math.Float64bits(x)
		h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)})
	}
	kinds := make([]string, len(res.Trace))
	for i, ev := range res.Trace {
		kinds[i] = fmt.Sprintf("%d:%s", ev.Iteration, ev.Kind)
	}
	c := res.Comm
	return fmt.Sprintf("err=%q x=%016x len=%d it=%d conv=%v res=%016x rb=%d ckpt=%d det=%d corr=%d wasted=%d fwd=%d avoided=%d saved=%d rejected=%d ckbytes=%d injected=%d"+
		" | bar=%d red=%d vred=%d gath=%d bc=%d msgs=%d words=%d | trace=[%s]",
		errText, h.Sum64(), len(res.X), res.Iterations, res.Converged, math.Float64bits(res.Residual),
		res.Rollbacks, res.Checkpoints, res.Detections, res.Corrections, res.WastedIterations,
		res.ForwardRepairs, res.RollbacksAvoided, res.IterationsSaved, res.RejectedCorrections,
		res.CheckpointBytes, res.InjectedFaults,
		c.Barriers, c.Reductions, c.VecReductions, c.Gathers, c.Broadcasts, c.MsgsSent, c.WordsMoved,
		strings.Join(kinds, " "))
}
