package core

import (
	"errors"
	"strings"
	"testing"

	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

func gmresSystem(t *testing.T) (*sparse.CSR, precond.Preconditioner, []float64) {
	t.Helper()
	a := sparse.ConvectionDiffusion2D(16, 16, 20)
	m, err := precond.ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	return a, m, b
}

func TestBasicGMRESFaultFreeMatchesUnprotected(t *testing.T) {
	a, m, b := gmresSystem(t)
	plain, err := solver.GMRES(a, m, b, 20, solver.Options{Tol: 1e-10, MaxIter: 10000})
	if err != nil {
		t.Fatal(err)
	}
	prot, err := BasicGMRES(a, m, b, 20, Options{Options: solver.Options{Tol: 1e-10, MaxIter: 10000}})
	if err != nil {
		t.Fatal(err)
	}
	if prot.Iterations != plain.Iterations {
		t.Errorf("iterations: protected %d, plain %d", prot.Iterations, plain.Iterations)
	}
	if !vec.Equal(prot.X, plain.X, 1e-10) {
		t.Errorf("protected GMRES diverged from plain")
	}
	if prot.Stats.Rollbacks != 0 || prot.Stats.Detections != 0 {
		t.Errorf("fault-free FT events: %+v", prot.Stats)
	}
}

func TestBasicGMRESRecoversFromErrors(t *testing.T) {
	for _, ev := range []fault.Event{
		{Iteration: 7, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
		{Iteration: 7, Site: fault.SitePCO, Kind: fault.Memory, Index: -1},
		{Iteration: 7, Site: fault.SiteVLO, Kind: fault.Arithmetic, Index: -1},
		{Iteration: 7, Site: fault.SiteMVM, Kind: fault.CacheRegister, Index: -1},
	} {
		a, m, b := gmresSystem(t)
		inj := fault.NewInjector([]fault.Event{ev}, 31)
		res, err := BasicGMRES(a, m, b, 20, Options{
			Options:  solver.Options{Tol: 1e-10, MaxIter: 20000},
			Injector: inj,
		})
		if err != nil {
			t.Fatalf("%v: %v", ev, err)
		}
		if res.Stats.Detections == 0 {
			t.Errorf("%v: undetected", ev)
		}
		if res.Stats.Rollbacks == 0 {
			t.Errorf("%v: no cycle restart", ev)
		}
		if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
			t.Errorf("%v: true residual %.3e", ev, tr)
		}
	}
}

func TestBasicGMRESStormBounded(t *testing.T) {
	a, m, b := gmresSystem(t)
	inj := fault.NewInjector(fault.Scenario3(100000), 32)
	inj.Refire = true
	_, err := BasicGMRES(a, m, b, 20, Options{
		Options:      solver.Options{Tol: 1e-10, MaxIter: 100000},
		MaxRollbacks: 20,
		Injector:     inj,
	})
	if err == nil {
		t.Fatalf("persistent errors every MVM should exceed the rollback budget")
	}
}

func TestBasicGMRESOnSPD(t *testing.T) {
	a := sparse.Laplacian2D(12, 12)
	m, err := precond.IC0(a)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1
	}
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: -1},
	}, 33)
	res, err := BasicGMRES(a, m, b, 30, Options{
		Options:  solver.Options{Tol: 1e-10, MaxIter: 10000},
		Injector: inj,
	})
	if err != nil {
		t.Fatal(err)
	}
	if tr := TrueResidual(a, b, res.X); tr > 1e-8 {
		t.Errorf("true residual %.3e", tr)
	}
}

// dyingIdentity is the identity preconditioner until its budget of
// applications runs out; then every Apply fails.
type dyingIdentity struct {
	precond.Preconditioner
	left int
}

func (d *dyingIdentity) Apply(z, r []float64) error {
	if d.left--; d.left < 0 {
		return errors.New("preconditioner lost")
	}
	return d.Preconditioner.Apply(z, r)
}

// TestBasicGMRESFailedPCOClosesAccounting: a hard preconditioner failure
// mid-cycle is an exit like any other — the result still reports the faults
// that fired before it and the last residual the solve saw.
func TestBasicGMRESFailedPCOClosesAccounting(t *testing.T) {
	a, _, b := gmresSystem(t)
	inj := fault.NewInjector([]fault.Event{
		{Iteration: 2, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 5, Magnitude: 1e-12},
	}, 31)
	m := &dyingIdentity{Preconditioner: precond.Identity(a.Rows), left: 6}
	res, err := BasicGMRES(a, m, b, 20, Options{
		Options:        solver.Options{Tol: 1e-10, MaxIter: 1000},
		DetectInterval: 50, // the sub-threshold strike is never examined before the failure
		Injector:       inj,
	})
	if err == nil || !strings.Contains(err.Error(), "preconditioner lost") {
		t.Fatalf("err = %v, want the preconditioner failure", err)
	}
	if res.Stats.InjectedErrors != 1 {
		t.Errorf("InjectedErrors = %d, want 1", res.Stats.InjectedErrors)
	}
	if res.Iterations != 6 || res.Residual <= 0 || res.Residual >= 1 {
		t.Errorf("iterations %d residual %g, want the state after 6 Arnoldi steps", res.Iterations, res.Residual)
	}
}
