package service

import (
	"context"
	"math"
	"reflect"
	"runtime"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// heldIlu0 returns the ILU(0) factor entry of spec's cached operator.
func heldIlu0(t *testing.T, s *Service, spec MatrixSpec) *checksum.Held[precond.Preconditioner] {
	t.Helper()
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	e, hit, _ := s.cache.get(spec.fingerprint(), &spec)
	if !hit {
		t.Fatalf("%+v is not cached", spec)
	}
	return e.ilu0
}

// sameSolve reports whether two responses carry the same solve: the
// solution bit for bit, the iteration count, the checksum counts and the
// trace.
func sameSolve(x, y *Response) bool {
	return vec.SameBits(x.X, y.X) && x.Iterations == y.Iterations &&
		math.Float64bits(x.Residual) == math.Float64bits(y.Residual) &&
		x.Detections == y.Detections && x.Corrections == y.Corrections && x.Rollbacks == y.Rollbacks &&
		x.ForwardRepairs == y.ForwardRepairs && reflect.DeepEqual(x.Trace, y.Trace)
}

// TestIlu0JobsShareAdmittedFactor: the ilu0 jobs on one cached operator
// factor it until a second factorization agrees with the first; from then
// on they share the first job's factor, so their stage rows come from the
// Encoding's memo. Every job, under Single weights (basic) and under
// Triple (forward recovery) and with a strike to recover from, solves
// bit for bit as a job on a service without a cache, which factors and
// encodes per job.
func TestIlu0JobsShareAdmittedFactor(t *testing.T) {
	ctx := context.Background()
	for _, forward := range []bool{false, true} {
		req := Request{Solver: "pcg", Precond: "ilu0", Forward: forward, Matrix: laplaceSpec(),
			Faults: []FaultSpec{{Iteration: 4, Index: 7}}, ReturnSolution: true, Trace: true}
		cold := New(Config{Workers: 1, CacheSize: -1})
		want, err := cold.Submit(ctx, req)
		cold.Close()
		if err != nil || want.InjectedFaults == 0 {
			t.Fatalf("uncached job: %d strikes, %v", want.InjectedFaults, err)
		}
		s := New(Config{Workers: 1})
		var first precond.Preconditioner
		for job := 1; job <= 4; job++ {
			got, err := s.Submit(ctx, req)
			if err != nil {
				t.Fatalf("forward %v, job %d: %v", forward, job, err)
			}
			if !sameSolve(got, want) {
				t.Fatalf("forward %v, job %d: solve differs from the uncached service's", forward, job)
			}
			h := heldIlu0(t, s, req.Matrix)
			if h.Admitted != (job >= 2) {
				t.Fatalf("forward %v, after job %d: factor admitted %v", forward, job, h.Admitted)
			}
			if job == 1 {
				first = h.Value
			} else if h.Value != first {
				t.Fatalf("forward %v, job %d: the entry holds another factor than the first job's", forward, job)
			}
		}
		s.Close()
	}
}

// TestIlu0StruckFactorIsNeverServed: a candidate factor one bit off (a
// strike in the first job's factorization, or in the held factor after
// it) disagrees with the next job's factorization, so it is not admitted
// and no later job is served it: the next job keeps its own factor, which
// the job after it admits. Every job solves as the uncached service does.
func TestIlu0StruckFactorIsNeverServed(t *testing.T) {
	ctx := context.Background()
	req := Request{Solver: "pcg", Precond: "ilu0", Matrix: laplaceSpec(), ReturnSolution: true}
	cold := New(Config{Workers: 1, CacheSize: -1})
	want, err := cold.Submit(ctx, req)
	cold.Close()
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	if _, err := s.Submit(ctx, req); err != nil {
		t.Fatal(err)
	}
	struck := heldIlu0(t, s, req.Matrix).Value
	u := struck.Stages()[1].M.Val
	u[9] = math.Float64frombits(math.Float64bits(u[9]) ^ 1<<40)
	var second precond.Preconditioner
	for job := 2; job <= 4; job++ {
		got, err := s.Submit(ctx, req)
		if err != nil {
			t.Fatalf("job %d: %v", job, err)
		}
		if !sameSolve(got, want) {
			t.Fatalf("job %d: solve differs from the uncached service's", job)
		}
		h := heldIlu0(t, s, req.Matrix)
		if h.Value == struck || h.Admitted != (job >= 3) {
			t.Fatalf("after job %d: holds the struck factor %v, admitted %v", job, h.Value == struck, h.Admitted)
		}
		if job == 2 {
			second = h.Value
		} else if h.Value != second {
			t.Fatalf("job %d: the entry holds another factor than job 2's", job)
		}
	}
}

// TestIlu0CacheHitAllocatesNoFactor: once an operator's factor is admitted,
// an ilu0 job on it allocates no factor and no stage row — fewer bytes than
// the job that admitted the factor (which factored, and encoded its stage
// rows, once more) by at least what precond.ILU0 and
// checksum.EncodeStages allocate on the operator. A served job, and that
// set-up, are the fewest bytes of five.
func TestIlu0CacheHitAllocatesNoFactor(t *testing.T) {
	spec := MatrixSpec{Kind: "laplace2d", N: 40}
	a := sparse.Laplacian2D(spec.N, spec.N)
	heap := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	setup := ^uint64(0)
	for range 5 {
		setup = min(setup, heap(func() {
			m, _ := precond.ILU0(a)
			checksum.EncodeStages(m.Stages(), checksum.Single, checksum.PracticalD(a))
		}))
	}

	s := New(Config{Workers: 1})
	defer s.Close()
	req := Request{Solver: "pcg", Precond: "ilu0", Matrix: spec}
	job := func() {
		if _, err := s.Submit(context.Background(), req); err != nil {
			t.Fatal(err)
		}
	}
	job()
	admitting := heap(job)
	served := ^uint64(0)
	for range 5 {
		served = min(served, heap(job))
	}
	if !heldIlu0(t, s, spec).Admitted {
		t.Fatal("the factor was not admitted by the second job")
	}
	if admitting < served+setup {
		t.Errorf("served job %d B against the admitting job's %d B; want at least the factor and stage rows' %d B fewer", served, admitting, setup)
	}
	t.Logf("admitting %d B, served %d B, factor and stage rows %d B", admitting, served, setup)
}
