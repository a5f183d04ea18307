package core

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// memoSolve is one protected solve of the stage-memo tests: a method and a
// scheme, with ForwardRecovery (Triple weights) or without (Single).
type memoSolve struct {
	name    string
	solve   func(a *sparse.CSR, m precond.Preconditioner, b []float64, o Options) (Result, error)
	forward bool
}

var memoSolves = []memoSolve{
	{"pcg/basic", BasicPCG, false},
	{"pcg/twolevel", TwoLevelPCG, false},
	{"pcg/basic+forward", BasicPCG, true},
	{"bicgstab/basic", BasicPBiCGSTAB, false},
	{"bicgstab/twolevel", TwoLevelPBiCGSTAB, false},
	{"bicgstab/basic+forward", BasicPBiCGSTAB, true},
}

// run solves with one MVM strike at iteration 4, from a fresh injector and
// trace, on enc when it is non-nil.
func (s memoSolve) run(a *sparse.CSR, m precond.Preconditioner, b []float64, enc *checksum.Encoding) (Result, *Trace, error) {
	tr := &Trace{}
	res, err := s.solve(a, m, b, Options{
		Options:         solver.Options{Tol: 1e-10},
		DetectInterval:  2,
		ForwardRecovery: s.forward,
		Encoding:        enc,
		Trace:           tr,
		Injector: fault.NewInjector([]fault.Event{{Iteration: 4, Site: fault.SiteMVM, Kind: fault.Arithmetic,
			Index: 17, BitFlip: true, Bit: 60}}, 1),
	})
	return res, tr, err
}

// sameResult reports whether got is want bit for bit: x by its bits,
// every other field of the Result and the trace exactly.
func sameResult(got, want Result, gotTr, wantTr *Trace) bool {
	if !vec.SameBits(got.X, want.X) {
		return false
	}
	got.X, want.X = nil, nil
	return reflect.DeepEqual(got, want) && reflect.DeepEqual(gotTr, wantTr)
}

// TestSharedEncodingRepeatsAreBitwise: PCG and BiCGStab, basic, two-level
// and basic with ForwardRecovery, each solved three times in turn on one
// shared Encoding and one preconditioner, with a strike each recovers
// from. The Single and Triple arms alternate on the Encoding's stage-row
// memo, which therefore holds a candidate, admits it and serves it along
// the way; every solve is, bit for bit in x and exactly in every other
// field and the trace, the same solve without an Encoding.
func TestSharedEncodingRepeatsAreBitwise(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	enc := checksum.NewEncoding(a, 0)
	type ref struct {
		res Result
		tr  *Trace
	}
	want := make([]ref, len(memoSolves))
	for k, s := range memoSolves {
		res, tr, err := s.run(a, m, b, nil)
		if err != nil || !res.Converged || res.Stats.Detections == 0 {
			t.Fatalf("%s without an Encoding: converged %v, %d detections, %v", s.name, res.Converged, res.Stats.Detections, err)
		}
		want[k] = ref{res, tr}
	}
	for round := 1; round <= 3; round++ {
		for k, s := range memoSolves {
			res, tr, err := s.run(a, m, b, enc)
			if err != nil {
				t.Fatalf("%s, solve %d: %v", s.name, round, err)
			}
			if !sameResult(res, want[k].res, tr, want[k].tr) {
				t.Fatalf("%s, solve %d:\n got %+v %v\nwant %+v %v", s.name, round, res.Stats, tr.Events, want[k].res.Stats, want[k].tr.Events)
			}
		}
	}
}

// TestStageRowsFollowThePreconditioner: engines on one Encoding take their
// stage rows from its memo: the second engine's are the first's, admitted,
// and so are the third's. A second preconditioner with equal values but
// its own stage matrices misses the memo and replaces the entry, so the
// first one misses too when it comes back; the rows are equal bit for bit
// throughout. A preconditioner without stages leaves the memo alone.
func TestStageRowsFollowThePreconditioner(t *testing.T) {
	a, m, _, _ := testSystem(t, 400)
	twin, err := precond.BlockJacobiILU0(a, 4)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Encoding: checksum.NewEncoding(a, 0)}
	opts.normalize()
	rows := func(m precond.Preconditioner) []*checksum.Matrix {
		var stats Stats
		return newEngine(a, m, checksum.Single, &opts, &stats).encStg
	}
	first := rows(m)
	for call := 2; call <= 3; call++ {
		if got := rows(m); &got[0] != &first[0] {
			t.Fatalf("engine %d was not served the first engine's admitted rows", call)
		}
	}
	if got := rows(precond.Identity(a.Rows)); got != nil {
		t.Fatalf("an identity preconditioner got %d stage rows", len(got))
	}
	if got := rows(m); &got[0] != &first[0] {
		t.Fatal("a solve without stages displaced the admitted rows")
	}
	other := rows(twin)
	if &other[0] == &first[0] || !checksum.RowsAgree(other, first) {
		t.Fatal("the twin preconditioner was served the admitted rows, or encoded to other bits")
	}
	if back := rows(m); &back[0] == &first[0] || !checksum.RowsAgree(back, first) {
		t.Fatal("the twin did not replace the entry, or the rows moved")
	}
}

// TestConcurrentSolvesShareOneEncoding: four goroutines solve at once,
// three times each, on one Encoding and one preconditioner, Single and
// Triple arms alternating, so they derive, admit and are served stage rows
// concurrently; every result is the Encoding-free solve's bit for bit.
// verify.sh runs it under -race.
func TestConcurrentSolvesShareOneEncoding(t *testing.T) {
	a, m, b, _ := testSystem(t, 400)
	enc := checksum.NewEncoding(a, 0)
	arms := []memoSolve{memoSolves[0], memoSolves[2]}
	var want [2]Result
	var wantTr [2]*Trace
	for k, s := range arms {
		var err error
		if want[k], wantTr[k], err = s.run(a, m, b, nil); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				k := (g + i) % 2
				res, tr, err := arms[k].run(a, m, b, enc)
				if err != nil || !sameResult(res, want[k], tr, wantTr[k]) {
					errs <- fmt.Errorf("goroutine %d, solve %d (%s): not the lone solve (%v)", g, i+1, arms[k].name, err)
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

// heapCost is what f allocates on the heap: mallocs and bytes.
func heapCost(f func()) (mallocs, bytes uint64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, after.TotalAlloc - before.TotalAlloc
}

// TestRepeatSolveAllocatesNoStageRows pins what a repeat solve on one
// Encoding and one block-Jacobi ILU(0) allocates once the Encoding's memo
// serves the stage rows (the first solve holds its derivation as the
// candidate, the second admits it): exactly the mallocs below, the fewest
// of 25 repeats of a fault-free basic PCG capped at 20 iterations (the
// runtime adds a few of its own to some solves), and fewer bytes than the
// first solve by at least the stage rows', under Single weights and under
// Triple (ForwardRecovery).
func TestRepeatSolveAllocatesNoStageRows(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state allocates on its own")
	}
	a := sparse.Laplacian2D(40, 40)
	m, err := precond.BlockJacobiILU0(a, 16)
	if err != nil {
		t.Fatal(err)
	}
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	for _, tc := range []struct {
		name    string
		forward bool
		weights []checksum.Weight
		mallocs uint64
	}{{"single", false, checksum.Single, 48}, {"triple", true, checksum.Triple, 52}} {
		t.Run(tc.name, func(t *testing.T) {
			enc := checksum.NewEncoding(a, 0)
			stageBytes := ^uint64(0)
			for range 5 {
				_, n := heapCost(func() { checksum.EncodeStages(m.Stages(), tc.weights, enc.D) })
				stageBytes = min(stageBytes, n)
			}
			opts := Options{Options: solver.Options{Tol: 1e-300, MaxIter: 20}, CheckpointInterval: 1 << 20,
				ForwardRecovery: tc.forward, Encoding: enc}
			solve := func() {
				if res, _ := BasicPCG(a, m, b, opts); res.Iterations != 20 || res.Stats.Detections != 0 {
					t.Fatalf("%d iterations, %d detections; want 20 fault-free", res.Iterations, res.Stats.Detections)
				}
			}
			_, first := heapCost(solve)
			solve()
			mallocs, bytes := ^uint64(0), ^uint64(0)
			for range 25 {
				c, n := heapCost(solve)
				mallocs, bytes = min(mallocs, c), min(bytes, n)
			}
			if mallocs != tc.mallocs {
				t.Errorf("repeat solve: %d mallocs, want %d", mallocs, tc.mallocs)
			}
			if first < bytes+stageBytes {
				t.Errorf("repeat solve: %d bytes against the first's %d; want at least the stage rows' %d fewer", bytes, first, stageBytes)
			}
			t.Logf("first %d B, repeat %d B, stage rows %d B", first, bytes, stageBytes)
		})
	}
}
