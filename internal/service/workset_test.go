package service

import (
	"context"
	"slices"
	"testing"

	"newsum/internal/vec"
)

// TestReturnedSolutionOutlivesLaterJobs: a job's returned x is the
// client's. A job's right-hand side, its end guard's residual and its
// solve's working set go back to vec's pool; three later jobs of the same
// n — other solvers, schemes and recovery tiers, another right-hand side —
// take and write them, and the first job's x must come through bit for
// bit.
func TestReturnedSolutionOutlivesLaterJobs(t *testing.T) {
	ctx := context.Background()
	s := New(Config{Workers: 2})
	defer s.Close()
	spec := laplaceSpec()
	rhs := make([]float64, 144)
	for i := range rhs {
		rhs[i] = float64(1 + i%5)
	}
	reqs := []Request{
		{Solver: "pcg", Matrix: spec, ReturnSolution: true},
		{Solver: "pcg", Precond: "ilu0", Forward: true, Matrix: spec, Faults: []FaultSpec{{Iteration: 4, Index: 7}}, ReturnSolution: true},
		{Solver: "bicgstab", Scheme: "twolevel", Matrix: spec, ReturnSolution: true},
		{Solver: "cr", Matrix: spec, RHS: rhs, ReturnSolution: true},
	}
	for k, req := range reqs {
		first, err := s.Submit(ctx, req)
		if err != nil || !first.Converged || len(first.X) != len(rhs) {
			t.Fatalf("job %d: converged %v, %d unknowns, %v", k, first.Converged, len(first.X), err)
		}
		keep := slices.Clone(first.X)
		for i := 1; i <= 3; i++ {
			if _, err := s.Submit(ctx, reqs[(k+i)%len(reqs)]); err != nil {
				t.Fatalf("job %d, later job %d: %v", k, i, err)
			}
		}
		if !vec.SameBits(first.X, keep) {
			t.Errorf("job %d: a later job wrote into its returned x", k)
		}
	}
}
