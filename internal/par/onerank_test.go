package par

import (
	"fmt"
	"math"
	"testing"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

// TestOneRankIsCore: one rank of the team is core's solve. On two
// generated operators, ABFTPCG (one-block ILU(0)) against core.BasicPCG
// with precond.ILU0 and ABFTCR against core.BasicCR take the same
// iterations to the same x, bit for bit, and tell the same timeline — kinds,
// iterations and wording — fault-free. Struck by the same bit-62 flip of
// the same MVM output element at the same iteration, each in its own
// package's fault vocabulary, they tell the same timeline kinds at the same
// iterations. The serial and distributed timelines are directly comparable
// because one driver writes both.
func TestOneRankIsCore(t *testing.T) {
	for _, op := range []struct {
		name string
		a    *sparse.CSR
	}{
		{"laplace2d", sparse.Laplacian2D(24, 24)},
		{"circuit", sparse.CircuitLike(1000, 1)},
	} {
		b := make([]float64, op.a.Rows)
		for i := range b {
			b[i] = 1 + math.Sin(float64(3*i))
		}
		m, err := precond.ILU0(op.a)
		if err != nil {
			t.Fatal(err)
		}
		solvers := []struct {
			name string
			core func(core.Options) (core.Result, error)
			par  func(Options) (Result, error)
		}{
			{"pcg",
				func(o core.Options) (core.Result, error) { return core.BasicPCG(op.a, m, b, o) },
				func(o Options) (Result, error) { return ABFTPCG(op.a, b, 1, o) }},
			{"cr",
				func(o core.Options) (core.Result, error) { return core.BasicCR(op.a, b, o) },
				func(o Options) (Result, error) { return ABFTCR(op.a, b, 1, o) }},
		}
		for _, s := range solvers {
			t.Run(op.name+"/"+s.name, func(t *testing.T) {
				run := func(events []fault.Event) (core.Result, []core.TraceEvent, Result) {
					t.Helper()
					tr := &core.Trace{}
					opts := core.Options{Options: solver.Options{Tol: 1e-10}, DetectInterval: 2, Trace: tr}
					if events != nil {
						opts.Injector = fault.NewInjector(events, 1)
					}
					cres, err := s.core(opts)
					if err != nil {
						t.Fatalf("core: %v", err)
					}
					var faults []Fault
					for _, ev := range events {
						faults = append(faults, Fault{Iteration: ev.Iteration, Index: ev.Index, BitFlip: true, Bit: ev.Bit})
					}
					pres, err := s.par(Options{Tol: 1e-10, DetectInterval: 2, Faults: faults})
					if err != nil {
						t.Fatalf("par: %v", err)
					}
					return cres, tr.Events, pres
				}
				cres, ctrace, pres := run(nil)
				if cres.Iterations != pres.Iterations {
					t.Fatalf("fault-free: core %d iterations, par %d", cres.Iterations, pres.Iterations)
				}
				for i := range cres.X {
					if math.Float64bits(cres.X[i]) != math.Float64bits(pres.X[i]) {
						t.Fatalf("fault-free: x[%d] = %v in core, %v in par", i, cres.X[i], pres.X[i])
					}
				}
				if got, want := timeline(pres.Trace, true), timeline(ctrace, true); got != want {
					t.Errorf("fault-free timeline:\npar  %s\ncore %s", got, want)
				}
				strike := []fault.Event{{Iteration: 5, Site: fault.SiteMVM, Kind: fault.Arithmetic, Index: 7, BitFlip: true, Bit: 62}}
				cres, ctrace, pres = run(strike)
				if cres.Stats.InjectedErrors != 1 || pres.InjectedFaults != 1 || pres.Rollbacks == 0 {
					t.Fatalf("bit-62 flip: fired %d in core, %d in par; %d rollbacks in par", cres.Stats.InjectedErrors, pres.InjectedFaults, pres.Rollbacks)
				}
				if got, want := timeline(pres.Trace, false), timeline(ctrace, false); got != want {
					t.Errorf("bit-62 flip timeline:\npar  %s\ncore %s", got, want)
				}
			})
		}
	}
}

// timeline renders a trace as iteration:kind, with each event's detail
// when detail is set.
func timeline(events []core.TraceEvent, detail bool) string {
	s := ""
	for _, ev := range events {
		s += fmt.Sprintf("%d:%s ", ev.Iteration, ev.Kind)
		if detail {
			s += fmt.Sprintf("%q ", ev.Detail)
		}
	}
	return s
}
