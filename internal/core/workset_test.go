package core

import (
	"fmt"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// A solve's working set — every vector but x, b's checksum slots, the
// snapshot's copies — comes from vec's pool and goes back when the solve
// ends (the engine's taken list, checkpoint.Store.Release). The tests hold
// both halves of that: what a caller keeps is never handed to a later
// solve, and a repeat solve allocates its answer and little else.

// worksetArm is one method × scheme of the working-set tests; strike runs
// basic with ForwardRecovery and one MVM strike, which PCG and CR repair
// forward and BiCGStab rolls back.
type worksetArm struct {
	name   string
	method Method
	scheme Scheme
	strike bool
}

// worksetArms is PCG, PBiCGSTAB and CR under every scheme the driver offers
// each of unprotected, basic and two-level (CR: basic alone), and basic with
// ForwardRecovery and a strike.
var worksetArms = []worksetArm{
	{"pcg/unprotected", MethodPCG, Unprotected, false},
	{"pcg/basic", MethodPCG, Basic, false},
	{"pcg/twolevel", MethodPCG, TwoLevel, false},
	{"pcg/forward+strike", MethodPCG, Basic, true},
	{"bicgstab/unprotected", MethodPBiCGSTAB, Unprotected, false},
	{"bicgstab/basic", MethodPBiCGSTAB, Basic, false},
	{"bicgstab/twolevel", MethodPBiCGSTAB, TwoLevel, false},
	{"bicgstab/forward+strike", MethodPBiCGSTAB, Basic, true},
	{"cr/basic", MethodCR, Basic, false},
	{"cr/forward+strike", MethodCR, Basic, true},
}

// solve runs the arm on enc, from a fresh injector when it strikes.
func (w worksetArm) solve(a *sparse.CSR, m precond.Preconditioner, b []float64, enc *checksum.Encoding) (Result, error) {
	opts := Options{Options: solver.Options{Tol: 1e-10}, Encoding: enc}
	if w.strike {
		opts.ForwardRecovery = true
		opts.Injector = fault.NewInjector([]fault.Event{{Iteration: 4, Site: fault.SiteMVM, Kind: fault.Arithmetic,
			Index: 17, BitFlip: true, Bit: 60}}, 1)
	}
	return Solve(w.method, w.scheme, a, m, b, opts)
}

// TestResultXOutlivesLaterSolves: Result.X is the caller's. After every
// arm's solve, three later solves of the same n — other arms, another
// right-hand side — take and write the pooled vectors and snapshot copies
// of that length; the first solve's x must come through bit for bit.
func TestResultXOutlivesLaterSolves(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	b2 := slices.Clone(b)
	for i := range b2 {
		b2[i] *= 1 + float64(i%3)
	}
	enc := checksum.NewEncoding(a, 0)
	for k, w := range worksetArms {
		t.Run(w.name, func(t *testing.T) {
			res, err := w.solve(a, m, b, enc)
			if err != nil {
				t.Fatal(err)
			}
			if w.strike && res.Stats.InjectedErrors == 0 {
				t.Fatal("the strike did not fire")
			}
			keep := slices.Clone(res.X)
			for i := 1; i <= 3; i++ {
				later := worksetArms[(k+i)%len(worksetArms)]
				if _, err := later.solve(a, m, b2, enc); err != nil {
					t.Fatalf("later solve %s: %v", later.name, err)
				}
			}
			if !vec.SameBits(res.X, keep) {
				t.Error("a later solve wrote into an earlier solve's x")
			}
		})
	}
}

// worksetSlack is what a repeat solve may allocate beyond its answer's
// 8·n bytes: the engine, the Vec headers, the leaf workspace, the
// recurrence, the snapshot's maps — a few KB whatever n is.
const worksetSlack = 8 << 10

// TestRepeatSolveAllocatesOnlyTheAnswer pins the working set's reuse: a
// repeat solve on one Encoding and one block-Jacobi ILU(0) — its stage
// rows served by the Encoding's memo from the third solve on — allocates
// at most 8·n bytes for x plus worksetSlack, every arm, in one measured
// solve. The collector is off while it measures, and vec.Settle has run the
// age pass of the last collection before the warm-up: a pass that lands
// late, inside the measurement, ages the pool's arrays and deletes idle
// shelves, and two drop the arrays.
func TestRepeatSolveAllocatesOnlyTheAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state allocates on its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	vec.Settle()
	a := sparse.Laplacian2D(40, 40)
	m, err := precond.BlockJacobiILU0(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	enc := checksum.NewEncoding(a, 0)
	limit := uint64(8*a.Rows + worksetSlack)
	for _, w := range worksetArms {
		if w.strike {
			continue
		}
		t.Run(w.name, func(t *testing.T) {
			solve := func() {
				if res, err := w.solve(a, m, b, enc); err != nil || !res.Converged {
					t.Fatalf("solve: converged %v, %v", res.Converged, err)
				}
			}
			solve()
			solve()
			mallocs, bytes := heapCost(solve)
			if bytes > limit {
				t.Errorf("repeat solve: %d B, want ≤ 8·n + %d = %d", bytes, worksetSlack, limit)
			}
			t.Logf("repeat solve: %d B in %d mallocs (8·n = %d)", bytes, mallocs, 8*a.Rows)
		})
	}
}

// TestConcurrentMixedSizesMatchSoloSolves: four goroutines solve systems of
// three sizes at once, each its own rotation of sizes and arms, so arrays
// of one length pass from goroutine to goroutine through the pool while
// others of other lengths are in use; every x and every Stats must be the
// lone solve's, bit for bit.
func TestConcurrentMixedSizesMatchSoloSolves(t *testing.T) {
	type system struct {
		a   *sparse.CSR
		m   precond.Preconditioner
		b   []float64
		enc *checksum.Encoding
	}
	var systems []system
	for _, n := range []int{256, 400, 576} {
		a, m, b, _ := testSystem(t, n)
		systems = append(systems, system{a, m, b, checksum.NewEncoding(a, 0)})
	}
	want := make([][]Result, len(systems))
	for s, sys := range systems {
		for _, w := range worksetArms {
			res, err := w.solve(sys.a, sys.m, sys.b, sys.enc)
			if err != nil {
				t.Fatalf("n=%d %s: %v", sys.a.Rows, w.name, err)
			}
			want[s] = append(want[s], res)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2*len(worksetArms); i++ {
				s, k := (g+i)%len(systems), (3*g+i)%len(worksetArms)
				sys, w := systems[s], worksetArms[k]
				res, err := w.solve(sys.a, sys.m, sys.b, sys.enc)
				if err != nil || !vec.SameBits(res.X, want[s][k].X) || res.Stats != want[s][k].Stats ||
					res.Iterations != want[s][k].Iterations {
					errs <- fmt.Errorf("goroutine %d, solve %d (n=%d %s): not the lone solve (%v)", g, i, sys.a.Rows, w.name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
