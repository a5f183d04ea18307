// Package bench is the experiment harness that regenerates every table and
// figure of the paper's evaluation section (§6): workload construction,
// scheme dispatch, host cost measurement, scenario schedules, and the
// formatted reports the newsum-bench tool prints. DESIGN.md §3 maps each
// experiment to its runner here.
package bench

import (
	"fmt"
	"math"
	"time"

	"newsum/internal/core"
	"newsum/internal/fault"
	"newsum/internal/precond"
	"newsum/internal/solver"
	"newsum/internal/sparse"
)

// Workload is one (matrix, preconditioner, rhs, method) evaluation setup.
type Workload struct {
	Name    string
	A       *sparse.CSR
	M       precond.Preconditioner
	B       []float64
	Method  core.Method
	Tol     float64
	MaxIter int
}

// rhsFor manufactures a right-hand side with a known smooth solution so
// every run can be judged against ground truth.
func rhsFor(a *sparse.CSR) []float64 {
	xTrue := make([]float64, a.Rows)
	for i := range xTrue {
		xTrue[i] = math.Sin(float64(i+1) * 0.1)
	}
	b := make([]float64, a.Rows)
	a.MulVec(b, xTrue)
	return b
}

// CircuitPCG builds the paper's primary workload: a circuit-topology SPD
// matrix (the G3_circuit stand-in, see DESIGN.md §4) solved by PCG with
// block-Jacobi ILU(0) — PETSc's default preconditioner, blocks playing the
// role of MPI ranks.
func CircuitPCG(n, blocks int, seed int64) (Workload, error) {
	a := sparse.CircuitLike(n, seed)
	m, err := precond.BlockJacobiILU0(a, blocks)
	if err != nil {
		return Workload{}, fmt.Errorf("bench: circuit workload: %w", err)
	}
	return Workload{
		Name:    fmt.Sprintf("circuit-n%d-PCG", a.Rows),
		A:       a,
		M:       m,
		B:       rhsFor(a),
		Method:  core.MethodPCG,
		Tol:     1e-8,
		MaxIter: 20000,
	}, nil
}

// ConvectionPBiCGSTAB builds the unsymmetric workload: a convection-
// diffusion operator solved by PBiCGSTAB with block-Jacobi ILU(0). This is
// the §6.3 solver with no orthogonality structure and two MVMs + two PCOs
// per iteration.
func ConvectionPBiCGSTAB(nx, ny, blocks int, beta float64) (Workload, error) {
	a := sparse.ConvectionDiffusion2D(nx, ny, beta)
	m, err := precond.BlockJacobiILU0(a, blocks)
	if err != nil {
		return Workload{}, fmt.Errorf("bench: convection workload: %w", err)
	}
	return Workload{
		Name:    fmt.Sprintf("convdiff-n%d-PBiCGSTAB", a.Rows),
		A:       a,
		M:       m,
		B:       rhsFor(a),
		Method:  core.MethodPBiCGSTAB,
		Tol:     1e-8,
		MaxIter: 20000,
	}, nil
}

// baseOptions translates the workload's solve parameters into core.Options.
func (w Workload) baseOptions() core.Options {
	return core.Options{Options: solver.Options{Tol: w.Tol, MaxIter: w.MaxIter}}
}

// RunScheme executes the workload under the given fault-tolerance scheme
// and returns the result together with the wall-clock time.
func RunScheme(w Workload, scheme core.Scheme, opts core.Options) (core.Result, time.Duration, error) {
	start := time.Now()
	res, err := core.Solve(w.Method, scheme, w.A, w.M, w.B, opts)
	return res, time.Since(start), err
}

// FaultFreeIterations runs the workload unprotected and fault-free and
// returns the converged iteration count, the reference I of the scenario
// schedules.
func (w Workload) FaultFreeIterations() (int, error) {
	res, _, err := RunScheme(w, core.Unprotected, w.baseOptions())
	if err != nil {
		return 0, err
	}
	return res.Iterations, nil
}

// ScenarioName labels the paper's error-rate regimes, including error-free.
type ScenarioName int

const (
	// ErrorFree runs with no injected faults.
	ErrorFree ScenarioName = iota
	// S1 injects one MVM error over the whole run (low rate).
	S1
	// S2 injects one MVM error per checkpoint interval (medium/high).
	S2
	// S3 injects an MVM error into every iteration, refiring across
	// rollbacks (extreme rate).
	S3
)

func (s ScenarioName) String() string {
	switch s {
	case ErrorFree:
		return "error-free"
	case S1:
		return "scenario 1"
	case S2:
		return "scenario 2"
	case S3:
		return "scenario 3"
	default:
		return "unknown"
	}
}

// Scenarios lists the four regimes of Figs. 6–9 in presentation order.
func Scenarios() []ScenarioName { return []ScenarioName{ErrorFree, S1, S2, S3} }

// InjectorFor builds the fault schedule for a scenario given the reference
// iteration count and checkpoint interval.
func InjectorFor(s ScenarioName, iters, cd int, seed int64) *fault.Injector {
	switch s {
	case ErrorFree:
		return nil
	case S1:
		return fault.NewInjector(fault.Scenario1(iters, seed), seed)
	case S2:
		return fault.NewInjector(fault.Scenario2(iters, cd, seed), seed)
	case S3:
		inj := fault.NewInjector(fault.Scenario3(4*iters), seed)
		inj.Refire = true
		return inj
	default:
		return nil
	}
}
