package par

import (
	"fmt"
	"maps"
	"math"
	"reflect"
	"sync"
	"testing"

	"newsum/internal/checksum"
	"newsum/internal/sparse"
)

// setupSystem is the operator of the memo tests: a grid Laplacian and a
// right-hand side that no symmetry makes special.
func setupSystem() (*sparse.CSR, []float64) {
	a := sparse.Laplacian2D(24, 24)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + math.Sin(float64(5*i))
	}
	return a, b
}

// requireSameSolve fails unless got is want bit for bit: x and the
// residual by their bits, every count, the trace and CommStats exactly.
func requireSameSolve(t *testing.T, what string, got, want Result) {
	t.Helper()
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: len(x) %d, want %d", what, len(got.X), len(want.X))
	}
	for i := range got.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			t.Fatalf("%s: x[%d] = %v, want %v", what, i, got.X[i], want.X[i])
		}
	}
	if math.Float64bits(got.Residual) != math.Float64bits(want.Residual) {
		t.Fatalf("%s: residual %v, want %v", what, got.Residual, want.Residual)
	}
	got.X, want.X, got.Residual, want.Residual = nil, nil, 0, 0
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// memoEntries returns the memo's entries when it holds a's blocks. The map
// is the memo's own: read it only while no solve runs.
func memoEntries(a *sparse.CSR) map[setupKey]*setupEntry {
	memo.Lock()
	defer memo.Unlock()
	if memo.a != a {
		return nil
	}
	return memo.entries
}

// TestRepeatSolveIsBitwise: a second solve on the same operator, served
// from the memo, is the first bit for bit — x, iterations, every count, the
// trace and CommStats — for PCG and BiCGStab at 1, 2 and 4 ranks, under
// Single and under ForwardRecovery (Triple), with a strike the team
// recovers from. The first solve admits one entry per rank and the repeat
// re-admits none.
func TestRepeatSolveIsBitwise(t *testing.T) {
	solvers := []struct {
		name  string
		solve func(a *sparse.CSR, b []float64, ranks int, o Options) (Result, error)
	}{
		{"pcg", ABFTPCG},
		{"bicgstab", ABFTBiCGStab},
	}
	for _, s := range solvers {
		for _, ranks := range []int{1, 2, 4} {
			for _, forward := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/r%d/forward=%v", s.name, ranks, forward), func(t *testing.T) {
					a, b := setupSystem()
					opts := Options{Tol: 1e-10, DetectInterval: 2, ForwardRecovery: forward,
						Faults: []Fault{{Iteration: 3, Rank: ranks - 1, Index: 2, BitFlip: true, Bit: 62}}}
					first, err := s.solve(a, b, ranks, opts)
					if err != nil || !first.Converged {
						t.Fatalf("first solve: converged %v, %v", first.Converged, err)
					}
					if first.InjectedFaults != 1 || first.Detections == 0 {
						t.Fatalf("first solve: %d strikes, %d detections; want one, detected", first.InjectedFaults, first.Detections)
					}
					admitted := maps.Clone(memoEntries(a))
					if len(admitted) != ranks {
						t.Fatalf("%d memo entries after the first solve, want %d", len(admitted), ranks)
					}
					again, err := s.solve(a, b, ranks, opts)
					if err != nil {
						t.Fatalf("repeat solve: %v", err)
					}
					requireSameSolve(t, "repeat", again, first)
					if got := memoEntries(a); !maps.Equal(got, admitted) {
						t.Errorf("the repeat re-admitted its blocks: %d entries", len(got))
					}
				})
			}
		}
	}
}

// TestInPlaceEditMissesTheMemo: scaling one diagonal value in place, after
// a solve has memoized the blocks, makes the next solve on the same pointer
// rebuild what the edit touched: it equals, bit for bit, a solve on a fresh
// clone of the edited operator. The last row's edit (4 → 5, row sum 7 <
// ‖A‖∞ = 8) leaves d where it was, so only the value check can tell the
// last rank's block apart: a memo keyed on the pointer alone serves its
// stale factor. The first row's edit (4 → 16) moves ‖A‖∞ and so d, and
// leaves the last rank's block values alone: only the d check tells that
// rank its encoded stage rows are stale.
func TestInPlaceEditMissesTheMemo(t *testing.T) {
	for _, tc := range []struct {
		name     string
		row      int // -1: the last
		scale    float64
		dByValue bool // the edit leaves d alone
	}{
		{"last-rank-values", -1, 1.25, true},
		{"d-only-for-last-rank", 0, 4, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := setupSystem()
			opts := Options{Tol: 1e-10}
			if _, err := ABFTPCG(a, b, 2, opts); err != nil {
				t.Fatal(err)
			}
			d := checksum.PracticalD(a)
			row := tc.row
			if row < 0 {
				row = a.Rows - 1
			}
			cols, vals := a.RowView(row)
			for k, j := range cols {
				if j == row {
					vals[k] *= tc.scale
				}
			}
			if moved := checksum.PracticalD(a) != d; moved == tc.dByValue {
				t.Fatalf("the edit moved d: %v, want %v", moved, !tc.dByValue)
			}
			edited, err := ABFTPCG(a, b, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			fresh, err := ABFTPCG(a.Clone(), b, 2, opts)
			if err != nil {
				t.Fatal(err)
			}
			requireSameSolve(t, "edited in place against a fresh clone", edited, fresh)
		})
	}
}

// TestRescaledOperatorReplacesItsEntries: rescaling the whole operator in
// place, as a time stepper would, moves d and every block value; each solve
// after a rescaling equals a solve on a fresh clone bit for bit, and the
// memo still holds exactly one entry per rank: the new blocks replace the
// old ones instead of piling up beside them.
func TestRescaledOperatorReplacesItsEntries(t *testing.T) {
	const ranks = 2
	a, b := setupSystem()
	opts := Options{Tol: 1e-10}
	if _, err := ABFTPCG(a, b, ranks, opts); err != nil {
		t.Fatal(err)
	}
	for step, scale := range []float64{2, 2, 0.125} {
		d := checksum.PracticalD(a)
		for k := range a.Val {
			a.Val[k] *= scale
		}
		if checksum.PracticalD(a) == d {
			t.Fatalf("step %d: rescaling by %v left d at %v", step, scale, d)
		}
		got, err := ABFTPCG(a, b, ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		if n := len(memoEntries(a)); n != ranks {
			t.Fatalf("step %d: %d memo entries, want %d", step, n, ranks)
		}
		want, err := ABFTPCG(a.Clone(), b, ranks, opts)
		if err != nil {
			t.Fatal(err)
		}
		requireSameSolve(t, fmt.Sprintf("step %d against a fresh clone", step), got, want)
		// The clone's admission dropped a's blocks; solve on a again so
		// the next step edits an operator the memo holds.
		if _, err := ABFTPCG(a, b, ranks, opts); err != nil {
			t.Fatal(err)
		}
	}
}

// TestConcurrentTeamsShareTheMemo: two teams solve one operator at once,
// both missing the memo, building and admitting concurrently; each result
// is a lone solve's bit for bit. verify.sh runs it under -race.
func TestConcurrentTeamsShareTheMemo(t *testing.T) {
	a, b := setupSystem()
	opts := Options{Tol: 1e-10, TwoLevel: true}
	want, err := ABFTPCG(a.Clone(), b, 2, opts)
	if err != nil {
		t.Fatal(err)
	}
	var results [2]Result
	var errs [2]error
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i], errs[i] = ABFTPCG(a, b, 2, opts)
		}()
	}
	wg.Wait()
	for i, res := range results {
		if errs[i] != nil {
			t.Fatalf("team %d: %v", i, errs[i])
		}
		requireSameSolve(t, fmt.Sprintf("team %d", i), res, want)
	}
	if n := len(memoEntries(a)); n != 2 {
		t.Errorf("%d memo entries after two teams of two ranks, want 2", n)
	}
}

// TestAdmissionRejectsDisagreeingBuilds: when the second, independent build
// of a block differs from the first in one bit — of L, of U, or of either
// stage's encoded row — the solve gets its first build and nothing is
// admitted; two agreeing builds are admitted and served.
func TestAdmissionRejectsDisagreeingBuilds(t *testing.T) {
	a, _ := setupSystem()
	lo, hi := NnzPartition(a, 2).Range(1)
	d := checksum.PracticalD(a)
	flip := func(v []float64) { v[3] = math.Float64frombits(math.Float64bits(v[3]) ^ 1) }
	for _, tc := range []struct {
		name   string
		strike func(s rankSetup)
	}{
		{"agree", nil},
		{"L", func(s rankSetup) { flip(s.stages[0].M.Val) }},
		{"U", func(s rankSetup) { flip(s.stages[1].M.Val) }},
		{"encoded-L", func(s rankSetup) { flip(s.encStg[0].Rows[0]) }},
		{"encoded-U", func(s rankSetup) { flip(s.encStg[1].Rows[0]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := a.Clone()
			key := setupKey{lo: lo, hi: hi, weights: len(checksum.Single)}
			builds := 0
			var first rankSetup
			build := func() (rankSetup, error) {
				s, err := buildSetup(a, lo, hi, checksum.Single, d)
				if builds++; builds == 1 {
					first = s
				} else if tc.strike != nil {
					tc.strike(s)
				}
				return s, err
			}
			got, err := memoized(a, key, d, build)
			if err != nil {
				t.Fatal(err)
			}
			if builds != 2 || &got.stages[0] != &first.stages[0] {
				t.Fatalf("%d builds; the solve must get the first of two", builds)
			}
			e := memoEntries(a)[key]
			if admitted := e != nil; admitted != (tc.strike == nil) {
				t.Fatalf("admitted %v, want %v", admitted, tc.strike == nil)
			}
			if e == nil {
				return
			}
			served, err := memoized(a, key, d, build)
			if err != nil || builds != 2 || &served.stages[0] != &first.stages[0] {
				t.Errorf("an admitted block was rebuilt (%d builds, %v)", builds, err)
			}
		})
	}
}
