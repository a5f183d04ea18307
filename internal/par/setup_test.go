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

// countAdmitted is the number of admitted entries of a memo map.
func countAdmitted(entries map[setupKey]*setupEntry) int {
	n := 0
	for _, e := range entries {
		if e.held.Admitted {
			n++
		}
	}
	return n
}

// TestRepeatSolveIsBitwise: later solves on the same operator, the second
// admitting the first's set-ups and the third served from the memo, are
// the first bit for bit — x, iterations, every count, the trace and
// CommStats — for PCG and BiCGStab at 1, 2 and 4 ranks, under Single and
// under ForwardRecovery (Triple), with a strike the team recovers from.
// The first solve holds one candidate per rank, the second admits each,
// and the third re-admits none.
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
					var admitted map[setupKey]*setupEntry
					for solve, what := range []string{"candidates", "admitted", "served"} {
						if solve > 0 {
							again, err := s.solve(a, b, ranks, opts)
							if err != nil {
								t.Fatalf("solve %d: %v", solve+1, err)
							}
							requireSameSolve(t, fmt.Sprintf("solve %d", solve+1), again, first)
						}
						entries := memoEntries(a)
						if n := countAdmitted(entries); len(entries) != ranks || n != min(solve, 1)*ranks {
							t.Fatalf("after solve %d: %d memo entries, %d admitted; want %d %s", solve+1, len(entries), n, ranks, what)
						}
						if solve == 2 && !maps.Equal(entries, admitted) {
							t.Errorf("solve 3 re-admitted its blocks")
						}
						admitted = maps.Clone(entries)
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
// both missing the memo and building concurrently, one team's build held
// as each block's candidate and the other's admitting it; each result is a
// lone solve's bit for bit. verify.sh runs it under -race.
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
	if e := memoEntries(a); len(e) != 2 || countAdmitted(e) != 2 {
		t.Errorf("%d memo entries, %d admitted, after two teams of two ranks; want 2 admitted", len(e), countAdmitted(e))
	}
}

// TestAdmissionRejectsDisagreeingBuilds: a build is admitted only when a
// later build agrees with it bit for bit, and a disagreeing candidate is
// never served. One build of a block differs from the others in one bit —
// of L, of U, or of either stage's encoded row — and is either the first
// (the candidate the next build must replace) or the second (the
// candidate that replaces a sound one). Until two consecutive builds
// agree, every solve builds and gets its own build, and nothing is
// admitted; from the solve whose build agrees with its predecessor's on,
// the predecessor's is admitted and served, and no solve builds again.
func TestAdmissionRejectsDisagreeingBuilds(t *testing.T) {
	a, _ := setupSystem()
	lo, hi := NnzPartition(a, 2).Range(1)
	d := checksum.PracticalD(a)
	flip := func(v []float64) { v[3] = math.Float64frombits(math.Float64bits(v[3]) ^ 1) }
	same := func(x, y rankSetup) bool { return &x.stages[0] == &y.stages[0] }
	// run solves once more than it takes two consecutive builds to agree;
	// struck (1-based, 0 for none) is the build hit strikes.
	run := func(t *testing.T, hit func(s rankSetup), struck int) {
		a := a.Clone()
		key := setupKey{lo: lo, hi: hi, weights: len(checksum.Single)}
		var builds []rankSetup
		build := func() (rankSetup, error) {
			s, err := buildSetup(a, lo, hi, checksum.Single, d)
			if builds = append(builds, s); len(builds) == struck {
				hit(s)
			}
			return s, err
		}
		admitAt := 2 + struck // the first solve whose build agrees with its predecessor's
		for solve := 1; solve <= admitAt+1; solve++ {
			got, err := memoized(a, key, d, build)
			if err != nil {
				t.Fatal(err)
			}
			if want := min(solve, admitAt); len(builds) != want {
				t.Fatalf("solve %d: %d builds, want %d", solve, len(builds), want)
			}
			if struck > 0 && solve > struck && same(got, builds[struck-1]) {
				t.Fatalf("solve %d was served build %d, the struck one", solve, struck)
			}
			want := builds[len(builds)-1]
			if solve >= admitAt {
				want = builds[admitAt-2]
			}
			if !same(got, want) {
				t.Fatalf("solve %d got another set-up than its own build or the admitted one", solve)
			}
			if e := memoEntries(a)[key]; e.held.Admitted != (solve >= admitAt) {
				t.Fatalf("after solve %d: admitted %v, want %v", solve, e.held.Admitted, solve >= admitAt)
			}
		}
	}
	t.Run("agree", func(t *testing.T) { run(t, nil, 0) })
	for _, tc := range []struct {
		name string
		hit  func(s rankSetup)
	}{
		{"L", func(s rankSetup) { flip(s.stages[0].M.Val) }},
		{"U", func(s rankSetup) { flip(s.stages[1].M.Val) }},
		{"encoded-L", func(s rankSetup) { flip(s.encStg[0].Rows[0]) }},
		{"encoded-U", func(s rankSetup) { flip(s.encStg[1].Rows[0]) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for struck := 1; struck <= 2; struck++ {
				t.Run(fmt.Sprintf("build%d", struck), func(t *testing.T) { run(t, tc.hit, struck) })
			}
		})
	}
}
