package par

import (
	"math"
	"testing"

	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

func parSystem(t *testing.T) (*sparse.CSR, []float64, []float64) {
	t.Helper()
	a := sparse.Laplacian2D(24, 24)
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i))
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	return a, b, xTrue
}

func TestABFTPCGMatchesSerialFaultFree(t *testing.T) {
	a, b, _ := parSystem(t)
	for _, ranks := range []int{1, 2, 4, 7} {
		res, err := ABFTPCG(a, b, ranks, Options{Tol: 1e-10})
		if err != nil {
			t.Fatalf("ranks=%d: %v", ranks, err)
		}
		if !res.Converged {
			t.Fatalf("ranks=%d: did not converge", ranks)
		}
		if res.Rollbacks != 0 {
			t.Errorf("ranks=%d: fault-free run rolled back %d times", ranks, res.Rollbacks)
		}
		r := make([]float64, a.Rows)
		a.MulVec(r, res.X)
		vec.Sub(r, b, r)
		if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-9 {
			t.Errorf("ranks=%d: true residual %.3e", ranks, rel)
		}
	}
}

func TestABFTPCGSerialEquivalence(t *testing.T) {
	// With one rank and the same block-Jacobi structure, iterates should
	// track the serial solver closely.
	a, b, _ := parSystem(t)
	serial, err := solver.PCG(a, precond.Identity(a.Rows), b, solver.Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("serial CG: %v", err)
	}
	parRes, err := ABFTPCG(a, b, 2, Options{Tol: 1e-10})
	if err != nil {
		t.Fatalf("parallel: %v", err)
	}
	// Different preconditioners → different iteration counts, but the same
	// solution.
	if !vec.Equal(serial.X, parRes.X, 1e-6) {
		t.Errorf("parallel solution differs from serial beyond tolerance")
	}
}

func TestABFTPCGRecoversFromInjectedFault(t *testing.T) {
	a, b, _ := parSystem(t)
	res, err := ABFTPCG(a, b, 4, Options{
		Tol:    1e-10,
		Faults: []Fault{{Iteration: 6, Rank: 2, Index: 5}},
	})
	if err != nil {
		t.Fatalf("faulted run: %v", err)
	}
	if res.Detections == 0 || res.Rollbacks == 0 {
		t.Errorf("fault not detected/recovered: detections=%d rollbacks=%d", res.Detections, res.Rollbacks)
	}
	r := make([]float64, a.Rows)
	a.MulVec(r, res.X)
	vec.Sub(r, b, r)
	if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-9 {
		t.Errorf("true residual after recovery %.3e", rel)
	}
}

func TestCollectives(t *testing.T) {
	comms := NewTeam(5)
	done := make(chan float64, 5)
	for r := 0; r < 5; r++ {
		go func(c *Comm) {
			s := c.AllReduceSum(float64(c.Rank() + 1))
			c.Barrier()
			s2 := c.AllReduceSum(2 * float64(c.Rank()+1))
			done <- s + s2
		}(comms[r])
	}
	for i := 0; i < 5; i++ {
		if got := <-done; got != 45 {
			t.Fatalf("allreduce: got %v, want 45", got)
		}
	}
}

func TestAllGather(t *testing.T) {
	const n, ranks = 23, 4
	comms := NewTeam(ranks)
	type out struct {
		rank int
		g    []float64
	}
	ch := make(chan out, ranks)
	for r := 0; r < ranks; r++ {
		go func(c *Comm) {
			lo, hi := BlockRange(n, ranks, c.Rank())
			local := make([]float64, hi-lo)
			for i := range local {
				local[i] = float64(lo + i)
			}
			g := make([]float64, n)
			c.AllGather(g, local, lo)
			ch <- out{c.Rank(), g}
		}(comms[r])
	}
	for i := 0; i < ranks; i++ {
		o := <-ch
		for j, v := range o.g {
			if v != float64(j) {
				t.Fatalf("rank %d: gathered[%d] = %v, want %d", o.rank, j, v, j)
			}
		}
	}
}

func TestTwoLevelParallelCorrectsInline(t *testing.T) {
	a, b, _ := parSystem(t)
	res, err := ABFTPCG(a, b, 4, Options{
		Tol:      1e-10,
		TwoLevel: true,
		Faults:   []Fault{{Iteration: 6, Rank: 1, Index: 3}},
	})
	if err != nil {
		t.Fatalf("two-level parallel: %v", err)
	}
	if res.Corrections == 0 {
		t.Errorf("single error should be corrected inline: %+v", res)
	}
	if res.Rollbacks != 0 {
		t.Errorf("single error should not roll back: %+v", res)
	}
	r := make([]float64, a.Rows)
	a.MulVec(r, res.X)
	vec.Sub(r, b, r)
	if rel := vec.Norm2(r) / vec.Norm2(b); rel > 1e-9 {
		t.Errorf("true residual %.3e", rel)
	}
}

func TestTwoLevelParallelFaultFree(t *testing.T) {
	a, b, _ := parSystem(t)
	res, err := ABFTPCG(a, b, 3, Options{Tol: 1e-10, TwoLevel: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Detections != 0 || res.Corrections != 0 || res.Rollbacks != 0 {
		t.Errorf("fault-free two-level run had FT events: %+v", res)
	}
}

// TestABFTPCGScaledRHS: a right-hand side scaled by 1e-170, whose squares
// underflow, or by 1e170, whose squares overflow, must not read as a zero
// or infinite ‖b‖. The solve returns an error or a solution whose true
// residual is within ten times the tolerance — never Converged at x = 0.
func TestABFTPCGScaledRHS(t *testing.T) {
	const tol = 1e-8
	a := sparse.Laplacian2D(20, 20)
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = math.Cos(float64(i))
	}
	for _, scale := range []float64{1e-170, 1e170} {
		b := make([]float64, a.Rows)
		a.MulVec(b, xTrue)
		vec.Scale(b, scale, b)
		for _, ranks := range []int{1, 2, 3} {
			res, err := ABFTPCG(a, b, ranks, Options{Tol: tol})
			if err != nil {
				t.Logf("scale %g ranks=%d: %v", scale, ranks, err)
				continue
			}
			r := make([]float64, a.Rows)
			a.MulVec(r, res.X)
			vec.Sub(r, b, r)
			if rel := vec.Norm2(r) / vec.Norm2(b); !(rel <= 10*tol) {
				t.Fatalf("scale %g ranks=%d: converged=%v after %d iterations, true relative residual %g",
					scale, ranks, res.Converged, res.Iterations, rel)
			}
		}
	}
}
