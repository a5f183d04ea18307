package par

import (
	"fmt"
	"testing"

	"newsum/internal/core"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/vec"
)

// The acceptance bar for the multi-solver engine: parallel BiCGStab and CR
// match their serial internal/core counterparts to 1e-8 fault-free at 1, 2,
// and 4 ranks. Both sides solve to a much tighter residual tolerance so the
// two solutions agree well inside the comparison tolerance.

func serialOpts(tol float64) core.Options {
	return core.Options{Options: solver.Options{Tol: tol}}
}

func TestABFTBiCGStabMatchesSerial(t *testing.T) {
	a, b, _ := parSystem(t)
	m, err := precond.ILU0(a)
	if err != nil {
		t.Fatal(err)
	}
	serial, err := core.BasicPBiCGSTAB(a, m, b, serialOpts(1e-12))
	if err != nil {
		t.Fatalf("serial BiCGStab: %v", err)
	}
	for _, ranks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			res, err := ABFTBiCGStab(a, b, ranks, Options{Tol: 1e-12})
			if err != nil {
				t.Fatalf("parallel BiCGStab: %v", err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			if res.Rollbacks != 0 || res.Detections != 0 {
				t.Errorf("fault-free run had FT events: %+v", res)
			}
			if !vec.Equal(serial.X, res.X, 1e-8) {
				t.Errorf("parallel solution differs from serial beyond 1e-8")
			}
			if res.Comm.Reductions == 0 || res.Comm.Gathers == 0 {
				t.Errorf("collective instrumentation empty: %+v", res.Comm)
			}
		})
	}
}

func TestABFTCRMatchesSerial(t *testing.T) {
	a, b, _ := parSystem(t)
	serial, err := core.BasicCR(a, b, serialOpts(1e-12))
	if err != nil {
		t.Fatalf("serial CR: %v", err)
	}
	for _, ranks := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("ranks=%d", ranks), func(t *testing.T) {
			res, err := ABFTCR(a, b, ranks, Options{Tol: 1e-12})
			if err != nil {
				t.Fatalf("parallel CR: %v", err)
			}
			if !res.Converged {
				t.Fatal("did not converge")
			}
			if res.Rollbacks != 0 || res.Detections != 0 {
				t.Errorf("fault-free run had FT events: %+v", res)
			}
			if !vec.Equal(serial.X, res.X, 1e-8) {
				t.Errorf("parallel solution differs from serial beyond 1e-8")
			}
		})
	}
}

// Every solver must produce identical results on both collective
// topologies: the tree collectives are bitwise-deterministic (every rank
// combines block sums with the same association tree), so swapping Linear
// for Tree may change the result only through summation order — within
// round-off of the same solve.
func TestTopologiesAgree(t *testing.T) {
	a, b, _ := parSystem(t)
	for _, tc := range []struct {
		name  string
		solve func(topo Topology) (Result, error)
	}{
		{"pcg", func(topo Topology) (Result, error) {
			return ABFTPCG(a, b, 4, Options{Tol: 1e-10, Topology: topo})
		}},
		{"bicgstab", func(topo Topology) (Result, error) {
			return ABFTBiCGStab(a, b, 4, Options{Tol: 1e-10, Topology: topo})
		}},
		{"cr", func(topo Topology) (Result, error) {
			return ABFTCR(a, b, 4, Options{Tol: 1e-10, Topology: topo})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tree, err := tc.solve(Tree)
			if err != nil {
				t.Fatalf("tree: %v", err)
			}
			linear, err := tc.solve(Linear)
			if err != nil {
				t.Fatalf("linear: %v", err)
			}
			if !vec.Equal(tree.X, linear.X, 1e-8) {
				t.Errorf("topologies disagree beyond round-off")
			}
			if tree.Comm.Collectives() == 0 || linear.Comm.Collectives() == 0 {
				t.Errorf("missing comm stats: tree=%+v linear=%+v", tree.Comm, linear.Comm)
			}
		})
	}
}
