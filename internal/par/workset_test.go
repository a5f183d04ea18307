package par

import (
	"fmt"
	"reflect"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// A team's working set — every rank's blocks and checksum rows, its
// gather buffer xg, its Comm's payload buffers, its snapshot's copies —
// comes from vec's pool and goes back once every rank has joined. These
// are core's working-set tests (core/workset_test.go) for the rank team.

// worksetArm is one distributed solver under one protection setting;
// strike adds ForwardRecovery and one MVM strike on the last rank.
type worksetArm struct {
	name   string
	solve  func(a *sparse.CSR, b []float64, ranks int, o Options) (Result, error)
	opts   Options
	strike bool
}

var worksetArms = []worksetArm{
	{"pcg/basic", ABFTPCG, Options{}, false},
	{"pcg/twolevel", ABFTPCG, Options{TwoLevel: true}, false},
	{"pcg/forward+strike", ABFTPCG, Options{ForwardRecovery: true}, true},
	{"bicgstab/basic", ABFTBiCGStab, Options{}, false},
	{"bicgstab/twolevel", ABFTBiCGStab, Options{TwoLevel: true}, false},
	{"bicgstab/forward+strike", ABFTBiCGStab, Options{ForwardRecovery: true}, true},
	{"cr/basic", ABFTCR, Options{}, false},
	{"cr/twolevel", ABFTCR, Options{TwoLevel: true}, false},
	{"cr/forward+strike", ABFTCR, Options{ForwardRecovery: true}, true},
}

func (w worksetArm) run(a *sparse.CSR, b []float64, ranks int) (Result, error) {
	o := w.opts
	o.Tol = 1e-10
	if w.strike {
		o.Faults = []Fault{{Iteration: 4, Rank: ranks - 1, Index: 17, BitFlip: true, Bit: 60}}
	}
	return w.solve(a, b, ranks, o)
}

// TestResultXOutlivesLaterSolves: a team's gathered x is the caller's.
// After every arm's solve at 1 and 2 ranks, three later solves of the same
// n — other arms, another right-hand side — take and write the pooled
// blocks, payloads and snapshot copies; the first x must come through bit
// for bit.
func TestResultXOutlivesLaterSolves(t *testing.T) {
	a := sparse.Laplacian2D(20, 20)
	b := make([]float64, a.Rows)
	b2 := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
		b2[i] = b[i] * float64(1+i%3)
	}
	for _, ranks := range []int{1, 2} {
		for k, w := range worksetArms {
			t.Run(fmt.Sprintf("%s/r%d", w.name, ranks), func(t *testing.T) {
				res, err := w.run(a, b, ranks)
				if err != nil {
					t.Fatal(err)
				}
				if w.strike && res.InjectedFaults == 0 {
					t.Fatal("the strike did not fire")
				}
				keep := slices.Clone(res.X)
				for i := 1; i <= 3; i++ {
					later := worksetArms[(k+i)%len(worksetArms)]
					if _, err := later.run(a, b2, ranks); err != nil {
						t.Fatalf("later solve %s: %v", later.name, err)
					}
				}
				if !vec.SameBits(res.X, keep) {
					t.Error("a later solve wrote into an earlier solve's x")
				}
			})
		}
	}
}

// worksetSlack is what a repeat team solve may allocate beyond its
// answer's 8·n bytes: the team's mailboxes and goroutines, each rank's
// engine, Vec headers, leaf workspace and snapshot maps, the trace — a
// few KB per rank whatever n is.
const worksetSlack = 10 << 10

// TestRepeatSolveAllocatesOnlyTheAnswer pins the working set's reuse for
// the team: a repeat solve, its rank factors served by the set-up memo,
// allocates at most 8·n bytes for the gathered x plus worksetSlack per
// rank, every method, basic and two-level, at 1 and 2 ranks, in one
// measured solve. The collector is off and vec.Settle has run first, as in
// core's twin.
func TestRepeatSolveAllocatesOnlyTheAnswer(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow state allocates on its own")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	vec.Settle()
	a := sparse.Laplacian2D(40, 40)
	b := make([]float64, a.Rows)
	for i := range b {
		b[i] = 1 + float64(i%7)
	}
	for _, ranks := range []int{1, 2} {
		limit := uint64(8*a.Rows + ranks*worksetSlack)
		for _, w := range worksetArms {
			if w.strike {
				continue
			}
			t.Run(fmt.Sprintf("%s/r%d", w.name, ranks), func(t *testing.T) {
				solve := func() {
					if res, err := w.run(a, b, ranks); err != nil || !res.Converged {
						t.Fatalf("solve: converged %v, %v", res.Converged, err)
					}
				}
				solve()
				solve()
				mallocs, bytes := heapCost(solve)
				if bytes > limit {
					t.Errorf("repeat solve: %d B, want ≤ 8·n + %d·%d = %d", bytes, ranks, worksetSlack, limit)
				}
				t.Logf("repeat solve: %d B in %d mallocs (8·n = %d)", bytes, mallocs, 8*a.Rows)
			})
		}
	}
}

// TestConcurrentTeamsMatchSoloSolves: four goroutines run teams of 1 and 2
// ranks over three sizes at once, so one team's payloads and blocks go back
// to the pool while other teams of the same n take arrays of their
// lengths; every gathered x, count and trace must be the lone solve's,
// bit for bit. Under -race a rank that put its buffers back before its peers
// left their last collective is reported here.
func TestConcurrentTeamsMatchSoloSolves(t *testing.T) {
	type system struct {
		a *sparse.CSR
		b []float64
	}
	var sys []system
	for _, side := range []int{16, 20, 24} {
		a := sparse.Laplacian2D(side, side)
		b := make([]float64, a.Rows)
		for i := range b {
			b[i] = 1 + float64(i%7)
		}
		sys = append(sys, system{a, b})
	}
	want := make(map[[3]int]Result)
	for s := range sys {
		for k, w := range worksetArms {
			for ranks := 1; ranks <= 2; ranks++ {
				res, err := w.run(sys[s].a, sys[s].b, ranks)
				if err != nil {
					t.Fatalf("n=%d %s r%d: %v", sys[s].a.Rows, w.name, ranks, err)
				}
				want[[3]int{s, k, ranks}] = res
			}
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < len(worksetArms); i++ {
				s, k, ranks := (g+i)%len(sys), (3*g+i)%len(worksetArms), 1+(g+i)%2
				res, err := worksetArms[k].run(sys[s].a, sys[s].b, ranks)
				w := want[[3]int{s, k, ranks}]
				same := err == nil && vec.SameBits(res.X, w.X)
				res.X, w.X = nil, nil
				if !same || !reflect.DeepEqual(res, w) {
					errs <- fmt.Errorf("goroutine %d, solve %d (n=%d %s r%d): not the lone solve (%v)", g, i, sys[s].a.Rows, worksetArms[k].name, ranks, err)
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
