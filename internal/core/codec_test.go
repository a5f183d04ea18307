package core

import (
	"math"
	"testing"

	"newsum/internal/checkpoint"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

// codecCase wires one protected solver to a fault schedule that forces at
// least one rollback, so restore paths — and, under the lossy codec, the
// checksum re-anchoring that follows them — actually execute.
type codecCase struct {
	name   string
	events []fault.Event
	seed   int64
	tol    float64
	run    func(t *testing.T, opts Options) (Result, error)
}

func codecCases() []codecCase {
	krylov := func(run func(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error)) func(*testing.T, Options) (Result, error) {
		return func(t *testing.T, opts Options) (Result, error) {
			a, m, b, _ := testSystem(t, 400)
			return run(a, m, b, opts)
		}
	}
	return []codecCase{
		{
			name:   "BasicPCG",
			events: []fault.Event{{Iteration: 7, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 13}},
			seed:   41, tol: 1e-8,
			run: krylov(BasicPCG),
		},
		{
			name: "TwoLevelPCG",
			// Count 3 defeats the inner-level single-error correction, so
			// the multiple-error diagnosis rolls back.
			events: []fault.Event{{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1, Count: 3}},
			seed:   42, tol: 1e-8,
			run: krylov(TwoLevelPCG),
		},
		{
			name:   "BasicPBiCGSTAB",
			events: []fault.Event{{Iteration: 6, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 17}},
			seed:   43, tol: 1e-8,
			run: krylov(BasicPBiCGSTAB),
		},
		{
			name:   "BasicCR",
			events: []fault.Event{{Iteration: 6, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 23}},
			seed:   44, tol: 1e-8,
			run: func(t *testing.T, opts Options) (Result, error) {
				a, _, b, _ := testSystem(t, 400)
				return BasicCR(a, b, opts)
			},
		},
		{
			name:   "OrthoPCG",
			events: []fault.Event{{Iteration: 6, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1}},
			seed:   45, tol: 1e-8,
			run: krylov(OrthoPCG),
		},
		{
			name:   "BasicGMRES",
			events: []fault.Event{{Iteration: 7, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1}},
			seed:   46, tol: 1e-8,
			run: func(t *testing.T, opts Options) (Result, error) {
				a := sparse.ConvectionDiffusion2D(16, 16, 20)
				m, err := precond.ILU0(a)
				if err != nil {
					t.Fatal(err)
				}
				b := make([]float64, a.Rows)
				for i := range b {
					b[i] = 1
				}
				opts.MaxIter = 20000
				return BasicGMRES(a, m, b, 20, opts)
			},
		},
		{
			name:   "BasicJacobi",
			events: []fault.Event{{Iteration: 9, Site: fault.SitePCO, Kind: fault.Memory, Index: -1}},
			seed:   47, tol: 1e-8,
			run: func(t *testing.T, opts Options) (Result, error) {
				a := sparse.DiagDominant(300, 5, 2)
				b := make([]float64, a.Rows)
				for i := range b {
					b[i] = 1
				}
				opts.MaxIter = 5000
				return BasicJacobi(a, b, opts)
			},
		},
		{
			name:   "BasicChebyshev",
			events: []fault.Event{{Iteration: 10, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1}},
			seed:   48, tol: 1e-7,
			run: func(t *testing.T, opts Options) (Result, error) {
				n := 100
				a := sparse.Tridiag(n, -1, 2, -1)
				b := make([]float64, n)
				for i := range b {
					b[i] = 1
				}
				lmin := 2 - 2*math.Cos(math.Pi/float64(n+1))
				lmax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
				opts.MaxIter = 100000
				return BasicChebyshev(a, precond.Identity(n), b, lmin, lmax, opts)
			},
		},
	}
}

func (c codecCase) system(t *testing.T) (*sparse.CSR, []float64) {
	t.Helper()
	switch c.name {
	case "BasicGMRES":
		return sparse.ConvectionDiffusion2D(16, 16, 20), nil
	case "BasicJacobi":
		return sparse.DiagDominant(300, 5, 2), nil
	case "BasicChebyshev":
		return sparse.Tridiag(100, -1, 2, -1), nil
	default:
		a, _, _, _ := testSystem(t, 400)
		return a, nil
	}
}

// TestLossyRollbackRecoversEverySolver is the acceptance gate for the
// lossy codec: after a rollback restores quantized state, the re-anchored
// checksums must verify clean — the run classifies as recovered (converges
// with a small true residual), never as a false-alarm rollback storm or
// silent corruption.
func TestLossyRollbackRecoversEverySolver(t *testing.T) {
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			inj := fault.NewInjector(c.events, c.seed)
			res, err := c.run(t, Options{
				Options:            solver.Options{Tol: 1e-10},
				DetectInterval:     2,
				CheckpointInterval: 6,
				Injector:           inj,
				CheckpointCodec:    checkpoint.Lossy,
				CheckpointRelBound: 1e-6,
			})
			if err != nil {
				t.Fatalf("lossy-codec solve failed (false-alarm storm or abort): %v", err)
			}
			if res.Stats.Rollbacks == 0 {
				t.Fatalf("fault did not force a rollback; the lossy restore path was not exercised: %+v", res.Stats)
			}
			if res.Stats.LossyRestores == 0 {
				t.Errorf("rollback under the lossy codec did not record a lossy restore: %+v", res.Stats)
			}
			if res.Stats.CheckpointBytes <= 0 || res.Stats.CheckpointStoredBytes <= 0 {
				t.Errorf("checkpoint byte counters not populated: copied=%d stored=%d",
					res.Stats.CheckpointBytes, res.Stats.CheckpointStoredBytes)
			}
			if res.Stats.CheckpointStoredBytes >= res.Stats.CheckpointBytes {
				t.Errorf("lossy codec stored %d bytes, not smaller than the %d logical bytes",
					res.Stats.CheckpointStoredBytes, res.Stats.CheckpointBytes)
			}
			a, _ := c.system(t)
			bvec := make([]float64, a.Rows)
			switch c.name {
			case "BasicPCG", "TwoLevelPCG", "BasicPBiCGSTAB", "BasicCR", "OrthoPCG":
				_, _, b2, _ := testSystem(t, 400)
				copy(bvec, b2)
			default:
				for i := range bvec {
					bvec[i] = 1
				}
			}
			if tr := TrueResidual(a, bvec, res.X); tr > c.tol {
				t.Errorf("true residual %.3e exceeds %.3e after lossy recovery", tr, c.tol)
			}
		})
	}
}

// TestDiffCodecBitwiseIdenticalToFull pins the differential codec's
// losslessness end to end: the same faulty solve under Full and Diff
// checkpointing must walk the identical trajectory — same iteration count,
// same rollbacks, bitwise-identical solution.
func TestDiffCodecBitwiseIdenticalToFull(t *testing.T) {
	for _, c := range codecCases() {
		t.Run(c.name, func(t *testing.T) {
			runWith := func(codec checkpoint.Codec) (Result, error) {
				inj := fault.NewInjector(c.events, c.seed)
				return c.run(t, Options{
					Options:            solver.Options{Tol: 1e-10},
					DetectInterval:     2,
					CheckpointInterval: 6,
					Injector:           inj,
					CheckpointCodec:    codec,
				})
			}
			full, errFull := runWith(checkpoint.Full)
			diff, errDiff := runWith(checkpoint.Diff)
			if (errFull == nil) != (errDiff == nil) {
				t.Fatalf("outcome diverged: full err=%v, diff err=%v", errFull, errDiff)
			}
			if full.Iterations != diff.Iterations || full.Stats.Rollbacks != diff.Stats.Rollbacks {
				t.Fatalf("trajectory diverged: full (iters=%d rollbacks=%d), diff (iters=%d rollbacks=%d)",
					full.Iterations, full.Stats.Rollbacks, diff.Iterations, diff.Stats.Rollbacks)
			}
			for i := range full.X {
				if math.Float64bits(full.X[i]) != math.Float64bits(diff.X[i]) {
					t.Fatalf("x[%d] differs bitwise: full %x, diff %x",
						i, math.Float64bits(full.X[i]), math.Float64bits(diff.X[i]))
				}
			}
			if diff.Stats.LossyRestores != 0 {
				t.Errorf("diff codec is lossless but recorded %d lossy restores", diff.Stats.LossyRestores)
			}
		})
	}
}

// TestLossyFaultFreeLeavesTrajectoryUntouched: saving through any codec
// only reads solver state — with no restore, a lossy-codec run must match
// the default run exactly.
func TestLossyFaultFreeLeavesTrajectoryUntouched(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	base, err := BasicPCG(a, m, b, Options{Options: solver.Options{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := BasicPCG(a, m, b, Options{
		Options:            solver.Options{Tol: 1e-10},
		CheckpointCodec:    checkpoint.Lossy,
		CheckpointRelBound: 1e-4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if base.Iterations != lossy.Iterations {
		t.Errorf("fault-free iterations diverged: full %d, lossy %d", base.Iterations, lossy.Iterations)
	}
	for i := range base.X {
		if math.Float64bits(base.X[i]) != math.Float64bits(lossy.X[i]) {
			t.Fatalf("fault-free x[%d] differs bitwise under lossy checkpointing", i)
		}
	}
	if lossy.Stats.Rollbacks != 0 || lossy.Stats.LossyRestores != 0 {
		t.Errorf("fault-free lossy run recorded recovery events: %+v", lossy.Stats)
	}
}
