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

// TestSolversMatchRecordedParent pins what a change of transport or of the
// set-up builders must not reach: the solution's bits, the iteration count,
// every detection verdict and every communication count of the three
// solvers at 1–4 ranks, fault-free and struck, against a table recorded
// from the commit before the mailbox (testdata/parent_bits.golden; -update
// rewrites it and is only honest on a tree whose arithmetic is trusted).
// The twolevel rows were re-recorded when the owner rank began recomputing
// a located element instead of subtracting its estimated error: each must
// end with its clean row's solution and residual, bit for bit. The
// cr/forward rows' det went 1 → 2 when every rank began running core's
// driver, which counts each failed verification; no other field moved.
func TestSolversMatchRecordedParent(t *testing.T) {
	a := sparse.Laplacian2D(12, 9)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + math.Sin(float64(3*i))
	}
	solvers := []struct {
		name string
		run  func(ranks int, o Options) (Result, error)
	}{
		{"pcg", func(r int, o Options) (Result, error) { return ABFTPCG(a, b, r, o) }},
		{"bicgstab", func(r int, o Options) (Result, error) { return ABFTBiCGStab(a, b, r, o) }},
		{"cr", func(r int, o Options) (Result, error) { return ABFTCR(a, b, r, o) }},
	}
	modes := []struct {
		name string
		opts func(ranks int) Options
	}{
		{"clean", func(int) Options { return Options{} }},
		{"flip", func(r int) Options {
			return Options{DetectInterval: 2, Faults: []Fault{{Iteration: 5, Rank: r - 1, Index: 2, BitFlip: true, Bit: 62}}}
		}},
		{"twolevel", func(r int) Options {
			return Options{TwoLevel: true, Faults: []Fault{{Iteration: 3, Rank: r / 2, Index: 1, Magnitude: 50}}}
		}},
		{"forward", func(r int) Options {
			return Options{ForwardRecovery: true, Faults: []Fault{{Iteration: 4, Rank: 0, Index: 3, BitFlip: true, Bit: 62}}}
		}},
	}
	var sb strings.Builder
	clean := map[string][2]uint64{} // solver/ranks → clean x hash and residual bits
	for _, s := range solvers {
		for _, m := range modes {
			for ranks := 1; ranks <= 4; ranks++ {
				res, err := s.run(ranks, m.opts(ranks))
				h := fnv.New64a()
				for _, x := range res.X {
					v := math.Float64bits(x)
					h.Write([]byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24), byte(v >> 32), byte(v >> 40), byte(v >> 48), byte(v >> 56)})
				}
				key, got := fmt.Sprintf("%s/r%d", s.name, ranks), [2]uint64{h.Sum64(), math.Float64bits(res.Residual)}
				switch m.name {
				case "clean":
					clean[key] = got
				case "twolevel":
					if got != clean[key] {
						t.Errorf("%s: twolevel x, res = %016x, %016x; clean %016x, %016x", key, got[0], got[1], clean[key][0], clean[key][1])
					}
				}
				fmt.Fprintf(&sb, "%s/%s/r%d: err=%v it=%d conv=%v x=%016x res=%016x det=%d rb=%d corr=%d fwd=%d ckpt=%d wasted=%d red=%d vred=%d gath=%d bar=%d msgs=%d words=%d\n",
					s.name, m.name, ranks, err != nil, res.Iterations, res.Converged, h.Sum64(), math.Float64bits(res.Residual),
					res.Detections, res.Rollbacks, res.Corrections, res.ForwardRepairs, res.Checkpoints, res.WastedIterations,
					res.Comm.Reductions, res.Comm.VecReductions, res.Comm.Gathers, res.Comm.Barriers, res.Comm.MsgsSent, res.Comm.WordsMoved)
			}
		}
	}
	compareGolden(t, filepath.Join("testdata", "parent_bits.golden"), sb.String())
}
