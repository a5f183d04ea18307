package core

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// unsymSystem builds the PBiCGSTAB test system.
func unsymSystem(t *testing.T, side int) (*sparse.CSR, precond.Preconditioner, []float64) {
	t.Helper()
	a := sparse.ConvectionDiffusion2D(side, side, 15)
	m, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = math.Sin(float64(i) * 0.3)
	}
	return a, m, b
}

func TestBasicPBiCGSTABFaultFreeMatchesUnprotected(t *testing.T) {
	a, m, b := unsymSystem(t, 20)
	plain, err := solver.PBiCGSTAB(a, m, b, solver.Options{Tol: 1e-10})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := BasicPBiCGSTAB(a, m, b, Options{Options: solver.Options{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Iterations != plain.Iterations {
		t.Errorf("iterations: protected %d, plain %d", prot.Iterations, plain.Iterations)
	}
	if !vec.Equal(prot.X, plain.X, 1e-12) {
		t.Errorf("protected solution differs")
	}
	if prot.Stats.Detections != 0 || prot.Stats.Rollbacks != 0 {
		t.Errorf("fault-free run had FT events: %+v", prot.Stats)
	}
}

func TestBasicPBiCGSTABRecoversFromErrors(t *testing.T) {
	for _, ev := range []fault.Event{
		{Iteration: 6, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
		{Iteration: 6, Site: fault.SitePCO, Kind: fault.Memory, Index: -1},
		{Iteration: 6, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1},
		{Iteration: 6, Site: fault.SitePCO, Kind: fault.CacheRegister, Index: -1},
	} {
		a, m, b := unsymSystem(t, 20)
		inj := fault.NewInjector([]fault.Event{ev}, 11)
		res, err := BasicPBiCGSTAB(a, m, b, Options{
			Options:  solver.Options{Tol: 1e-10, MaxIter: 10000},
			Injector: inj,
		})
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if res.Stats.Detections == 0 {
			t.Errorf("%v: not detected", ev)
		}
		if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
			t.Errorf("%v: true residual %.3e", ev, tr)
		}
	}
}

func TestTwoLevelPBiCGSTABInlineCorrection(t *testing.T) {
	a, m, b := unsymSystem(t, 20)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 4, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 17},
	}, 5)
	res, err := TwoLevelPBiCGSTAB(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Corrections != 1 || res.Stats.Rollbacks != 0 {
		t.Errorf("want 1 inline correction, 0 rollbacks: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestEagerAndLazyTwoLevelAgree(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	for _, eager := range []bool{false, true} {
		inj := fault.NewInjector([]fault.Event{
			{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 42},
			{Iteration: 15, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1, Count: 3},
		}, 9)
		res, err := TwoLevelPCG(a, m, b, Options{
			Options:     solver.Options{Tol: 1e-10},
			EagerTriple: eager,
			Injector:    inj,
		})
		if err != nil {
			t.Fatalf("eager=%v: %v", eager, err)
		}
		if res.Stats.Corrections != 1 {
			t.Errorf("eager=%v: corrections %d, want 1", eager, res.Stats.Corrections)
		}
		if res.Stats.Rollbacks == 0 {
			t.Errorf("eager=%v: the 3-element error should roll back", eager)
		}
		if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
			t.Errorf("eager=%v: true residual %.3e", eager, tr)
		}
	}
}

func TestOnlineMVDetectsArithmeticRepairsInPlace(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 123},
	}, 3)
	res, err := OnlineMVPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 || res.Stats.Corrections == 0 {
		t.Errorf("arithmetic MVM error not repaired: %+v", res.Stats)
	}
	if res.Stats.PartialRecomputeNNZ == 0 {
		t.Errorf("binary search should have recomputed nonzeros")
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestOnlineMVBlindToCacheError(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SitePCO, Kind: fault.CacheRegister, Index: 7},
	}, 3)
	res, err := OnlineMVPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
		Injector: inj,
	})
	// Whatever the outcome, the scheme must not have detected anything —
	// the §2 blindness.
	if res.Stats.Detections != 0 {
		t.Errorf("online MV claimed to detect a cache error: %+v", res.Stats)
	}
	_ = err
}

func TestOnlineMVVotesAwayMemoryError(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SitePCO, Kind: fault.Memory, Index: 7},
	}, 3)
	res, err := OnlineMVPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Corrections == 0 {
		t.Errorf("replicated storage should outvote the memory flip")
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestOnlineMVPBiCGSTAB(t *testing.T) {
	a, m, b := unsymSystem(t, 16)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 3, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
	}, 4)
	res, err := OnlineMVPBiCGSTAB(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Corrections == 0 {
		t.Errorf("MVM error not repaired: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestOrthoPCGDetectsResidualGap(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
	}, 6)
	res, err := OrthoPCG(a, m, b, Options{
		Options:            solver.Options{Tol: 1e-10},
		DetectInterval:     2,
		CheckpointInterval: 8,
		Injector:           inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 || res.Stats.Rollbacks == 0 {
		t.Errorf("residual-relationship check missed the error: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestOrthoPCGBlindToPCOCacheError(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SitePCO, Kind: fault.CacheRegister, Index: 7},
	}, 6)
	res, _ := OrthoPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
		Injector: inj,
	})
	if res.Stats.Detections != 0 {
		t.Errorf("orthogonality baseline claimed to detect a PCO cache error")
	}
}

func TestOfflineResidualReRunsOnCorruption(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	// A memory error in x propagates to a wrong final answer of the
	// unprotected run; the offline check must spot it and recompute.
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1},
	}, 8)
	res, err := OfflineResidualPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e after offline recompute", tr)
	}
}

func TestOfflineResidualCleanRunSinglePass(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	res, err := OfflineResidualPCG(a, m, b, Options{Options: solver.Options{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections != 0 || res.Stats.WastedIterations != 0 {
		t.Errorf("clean run should not rerun: %+v", res.Stats)
	}
}

func TestOfflineResidualPBiCGSTAB(t *testing.T) {
	a, m, b := unsymSystem(t, 16)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 4, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1},
	}, 8)
	res, err := OfflineResidualPBiCGSTAB(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestBasicJacobiProtects(t *testing.T) {
	a := sparse.DiagDominant(300, 5, 2)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 4, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
		{Iteration: 9, Site: fault.SitePCO, Kind: fault.Memory, Index: -1},
	}, 13)
	res, err := BasicJacobi(a, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 5000},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 || res.Stats.Rollbacks == 0 {
		t.Errorf("Jacobi protection inert: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestBasicChebyshevProtects(t *testing.T) {
	n := 100
	a := sparse.Tridiag(n, -1, 2, -1)
	b := make([]float64, n)
	for i := range b {
		b[i] = 1
	}
	lmin := 2 - 2*math.Cos(math.Pi/float64(n+1))
	lmax := 2 - 2*math.Cos(float64(n)*math.Pi/float64(n+1))
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 10, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
	}, 14)
	res, err := BasicChebyshev(a, precond.Identity(n), b, lmin, lmax, Options{
		Options:  solver.Options{Tol: 1e-9, MaxIter: 100000},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 {
		t.Errorf("Chebyshev protection inert: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-7 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestUnprotectedCorruptsSilently(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1},
	}, 15)
	res, err := UnprotectedPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
		Injector: inj,
	})
	// Either it fails to converge, or it "converges" to something whose
	// true residual may be wrong — in no case does it detect anything.
	if res.Stats.Detections != 0 || res.Stats.Rollbacks != 0 {
		t.Fatalf("unprotected run performed fault tolerance?!")
	}
	_ = err
}

// TestControlArmsSeeTheProtectedFaultModel: the control arms run through
// the same engine operations as the protected arms, so the injector hooks
// only the protected solve used to expose — VLO input memory and cache
// windows, the checkpoint buffers — strike them too. An overhead or
// coverage comparison between arms is only meaningful on the same events.
func TestControlArmsSeeTheProtectedFaultModel(t *testing.T) {
	a, m, b, _ := testSystem(t, 144)
	ua, um, ub := unsymSystem(t, 12)
	arms := []entryPoint{
		{"pcg/unprotected", func(o Options) (Result, error) { return UnprotectedPCG(a, m, b, o) }},
		{"pcg/ortho", func(o Options) (Result, error) { return OrthoPCG(a, m, b, o) }},
		{"bicgstab/unprotected", func(o Options) (Result, error) { return UnprotectedPBiCGSTAB(ua, um, ub, o) }},
	}
	events := []fault.Event{
		{Iteration: 3, Site: fault.SiteVLO, Kind: fault.Memory, Index: 5, Magnitude: 1e-3},
		{Iteration: 3, Site: fault.SiteVLO, Kind: fault.CacheRegister, Index: 5, Magnitude: 1e-3},
	}
	for _, arm := range arms {
		res, _ := arm.run(Options{Options: solver.Options{Tol: 1e-10}, Injector: fault.NewInjector(events, 3)})
		if res.Stats.InjectedErrors != len(events) {
			t.Errorf("%s: %d of %d scheduled VLO events fired", arm.name, res.Stats.InjectedErrors, len(events))
		}
	}
	// The orthogonality baseline keeps checkpoints, so the checkpoint-buffer
	// attack reaches it as well.
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 0, Site: fault.SiteCheckpoint, Kind: fault.Memory, Index: 3, Magnitude: 1e-3},
	}, 3)
	res, _ := OrthoPCG(a, m, b, Options{Options: solver.Options{Tol: 1e-10}, Injector: inj})
	if res.Stats.InjectedErrors != 1 {
		t.Errorf("ortho: checkpoint-buffer event did not fire")
	}

	// Jacobi and Chebyshev run under the driver like every other method, so
	// their snapshots are exposed to the checkpoint-buffer attack and their
	// recovery is traced. A data strike right after the poisoned snapshot
	// forces the rollback onto it: the solve either recovers or aborts
	// loudly, never returns a wrong answer quietly.
	ja, jb := jacobiSystem()
	ca, cm, cb, lmin, lmax := chebyshevSystem()
	stationary := []struct {
		entryPoint
		check func(x []float64) float64
	}{
		{entryPoint{"jacobi", func(o Options) (Result, error) { return BasicJacobi(ja, jb, o) }},
			func(x []float64) float64 { return TrueResidual(ja, jb, x) }},
		{entryPoint{"chebyshev", func(o Options) (Result, error) { return BasicChebyshev(ca, cm, cb, lmin, lmax, o) }},
			func(x []float64) float64 { return TrueResidual(ca, cb, x) }},
	}
	for _, arm := range stationary {
		tr := &Trace{}
		res, err := arm.run(Options{
			Options:            solver.Options{Tol: 1e-10},
			DetectInterval:     2,
			CheckpointInterval: 4,
			MaxRollbacks:       6,
			Trace:              tr,
			Injector: fault.NewInjector([]fault.Event{
				{Iteration: 4, Site: fault.SiteCheckpoint, Kind: fault.Memory, Index: 3, Magnitude: 1e-3},
				{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 17, Magnitude: 1e4},
			}, 3),
		})
		if res.Stats.InjectedErrors != 2 {
			t.Errorf("%s: %d of 2 events fired (checkpoint buffer + MVM)", arm.name, res.Stats.InjectedErrors)
		}
		switch {
		case err == nil:
			if tr := arm.check(res.X); tr > 1e-8 {
				t.Errorf("%s: returned quietly with true residual %.3e", arm.name, tr)
			}
		case !errors.Is(err, ErrRollbackStorm):
			t.Errorf("%s: %v, want recovery or a rollback storm", arm.name, err)
		}
		for _, kind := range []EventKind{EvDetection, EvCheckpoint, EvRollback} {
			if tr.Count(kind) == 0 {
				t.Errorf("%s: traced faulty run emitted no %s event", arm.name, kind)
			}
		}
	}
}

func TestMethodAndSchemeStrings(t *testing.T) {
	if MethodPCG.String() != "PCG" || MethodPBiCGSTAB.String() != "PBiCGSTAB" || Method(9).String() == "" {
		t.Errorf("Method.String broken")
	}
	for s := Unprotected; s <= OfflineResidual; s++ {
		if s.String() == "" || s.String() == "unknown scheme" {
			t.Errorf("Scheme %d has no name", s)
		}
	}
	if Scheme(99).String() != "unknown scheme" {
		t.Errorf("unknown scheme name")
	}
}

func TestOptionsNormalize(t *testing.T) {
	o := Options{}
	o.normalize()
	if o.DetectInterval != 1 || o.CheckpointInterval != 10 || o.Theta != 1e-10 || o.MaxRollbacks != 1000 {
		t.Fatalf("defaults: %+v", o)
	}
	// cd rounds up to a multiple of d.
	o2 := Options{DetectInterval: 3, CheckpointInterval: 10}
	o2.normalize()
	if o2.CheckpointInterval != 12 {
		t.Fatalf("cd alignment: %d", o2.CheckpointInterval)
	}
}

func TestValidateSystemErrors(t *testing.T) {
	rect := sparse.NewCOO(2, 3).ToCSR()
	if _, err := BasicPCG(rect, nil, make([]float64, 2), Options{}); err == nil {
		t.Fatalf("rectangular matrix accepted")
	}
	sq := sparse.Identity(3)
	if _, err := BasicPCG(sq, nil, make([]float64, 2), Options{}); err == nil {
		t.Fatalf("rhs length mismatch accepted")
	}
}

func TestTrueResidual(t *testing.T) {
	a := sparse.Identity(3)
	b := []float64{1, 2, 3}
	if got := TrueResidual(a, b, b); got != 0 {
		t.Fatalf("exact solution residual: %v", got)
	}
	if got := TrueResidual(a, b, []float64{0, 0, 0}); math.Abs(got-1) > 1e-15 {
		t.Fatalf("zero guess residual: %v", got)
	}
	if got := TrueResidual(a, []float64{0, 0, 0}, []float64{0, 0, 0}); got != 0 {
		t.Fatalf("zero rhs residual: %v", got)
	}
}

// Property: for random SPD systems and random single arithmetic errors, the
// basic scheme always recovers to a correct solution — the headline
// guarantee, exercised across matrices, positions and iterations.
func TestBasicPCGAlwaysRecoversProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := sparse.SPDRandom(80, 3, seed)
		m, err := precond.Jacobi(a)
		if err != nil {
			return false
		}
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1
		}
		ref, err := UnprotectedPCG(a, m, b, Options{Options: solver.Options{Tol: 1e-10, MaxIter: 5000}})
		if err != nil {
			return true // skip systems the plain solver cannot handle
		}
		iter := int(seed % int64(maxi(ref.Iterations-1, 1)))
		if iter < 0 {
			iter = -iter
		}
		inj := fault.NewInjector([]fault.Event{
			{Iteration: iter, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
		}, seed)
		res, err := BasicPCG(a, m, b, Options{
			Options:  solver.Options{Tol: 1e-10, MaxIter: 10000},
			Injector: inj,
		})
		if err != nil {
			return false
		}
		return TrueResidual(a, b, res.X) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func TestRollbackStormErrorWrapping(t *testing.T) {
	err := rollbackStormErr("PCG", Basic)
	if !errors.Is(err, ErrRollbackStorm) {
		t.Fatalf("storm error does not wrap sentinel")
	}
}

func TestOnlineMVRepairsVLOErrorByMajorityVote(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1},
	}, 19)
	res, err := OnlineMVPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 || res.Stats.Corrections == 0 {
		t.Errorf("duplicated execution should outvote the VLO error: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestOnlineMVRepairsPCOErrorByMajorityVote(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 4, Site: fault.SitePCO, Kind: fault.Arithmetic, Index: -1},
	}, 20)
	res, err := OnlineMVPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Corrections == 0 {
		t.Errorf("duplicated PCO should outvote the error: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

func TestOfflineResidualPBiCGSTABCleanSinglePass(t *testing.T) {
	a, m, b := unsymSystem(t, 14)
	res, err := OfflineResidualPBiCGSTAB(a, m, b, Options{Options: solver.Options{Tol: 1e-10}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections != 0 {
		t.Errorf("clean run should not trigger the rerun: %+v", res.Stats)
	}
}

// TestBitFlipsDetectedEndToEnd drives literal IEEE-754 bit flips (the §3
// error model's namesake) through the basic and two-level schemes.
func TestBitFlipsDetectedEndToEnd(t *testing.T) {
	for _, kind := range []fault.Kind{fault.Arithmetic, fault.Memory, fault.CacheRegister} {
		a, m, b, _ := testSystem(t, 400)
		inj := fault.NewInjector([]fault.Event{
			{Iteration: 6, Site: fault.SiteMVM, Kind: kind, Index: -1, BitFlip: true, Bit: -1},
		}, 23)
		res, err := BasicPCG(a, m, b, Options{
			Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
			Injector: inj,
		})
		if err != nil {
			t.Fatalf("%v bit flip: %v", kind, err)
		}
		if res.Stats.Detections == 0 {
			t.Errorf("%v bit flip escaped detection", kind)
		}
		if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
			t.Errorf("%v bit flip: true residual %.3e", kind, tr)
		}
	}
}

// TestTwoLevelCorrectsBitFlipInline: a single output bit flip is a single
// error — the inner level must fix it without rollback.
func TestTwoLevelCorrectsBitFlipInline(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 7, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 55, BitFlip: true, Bit: 54},
	}, 24)
	res, err := TwoLevelPCG(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Corrections != 1 || res.Stats.Rollbacks != 0 {
		t.Errorf("bit flip should be corrected inline: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

// TestOfflineResidualPBiCGSTABRerunsOnCorruption forces the rerun path: a
// large strike on the MVM output v ≠ A·p̂ enters s and r scaled by −α and
// the resulting discrepancy r − (b − A·x) is invariant under the BiCGSTAB
// update, so the first pass "converges" — small recurrence residual, wrong
// answer — exactly the silent corruption the offline true-residual check
// exists to catch. (A search-direction strike would NOT corrupt: the αp̂
// step and its −αv residual update cancel in the discrepancy.) The rerun is
// clean (events are one-shot) and must land on the genuine solution while
// charging the wasted first pass to the stats.
func TestOfflineResidualPBiCGSTABRerunsOnCorruption(t *testing.T) {
	a, m, b := unsymSystem(t, 16)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 40, Magnitude: 1e6},
	}, 8)
	res, err := OfflineResidualPBiCGSTAB(a, m, b, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Detections == 0 {
		t.Errorf("corrupted first pass must be detected: %+v", res.Stats)
	}
	if res.Stats.WastedIterations == 0 {
		t.Errorf("rerun must charge the wasted first pass: %+v", res.Stats)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("rerun true residual %.3e", tr)
	}
}

// TestApplyCleanIdentity: with no preconditioner the clean apply is a copy.
func TestApplyCleanIdentity(t *testing.T) {
	r := []float64{1, 2, 3}
	z := make([]float64, 3)
	if err := applyClean(nil, z, r); err != nil {
		t.Fatal(err)
	}
	for i := range r {
		if z[i] != r[i] {
			t.Fatalf("z = %v, want %v", z, r)
		}
	}
}
