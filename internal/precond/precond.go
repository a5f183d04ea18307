// Package precond implements the preconditioners (the paper's PCO operation)
// used by the protected solvers: Jacobi, ILU(0), block-Jacobi with ILU(0)
// blocks (the PETSc default the paper evaluates with), SSOR, and identity.
//
// A preconditioner application M·z = r is exposed as a sequence of stages,
// each of which is either a sparse triangular/diagonal solve or a sparse
// multiply by an explicit matrix. This is exactly the structure §4 of the
// paper exploits: an explicit M is protected via Eq. (4); an implicit M
// (e.g. incomplete factors) is "composed of several MVMs and VLOs" — here,
// solves and multiplies — each of which carries the checksum forward.
package precond

import (
	"fmt"

	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// StageOp distinguishes the two kinds of preconditioner stage.
type StageOp int

const (
	// StageSolve applies M_i⁻¹: solve M_i·out = in.
	StageSolve StageOp = iota
	// StageMul applies M_i: out = M_i·in.
	StageMul
)

// TriShape describes the triangular structure of a solve-stage matrix.
type TriShape int

const (
	// Diagonal matrices solve element-wise.
	Diagonal TriShape = iota
	// Lower triangular, non-unit diagonal.
	Lower
	// LowerUnit is lower triangular with an implicit unit diagonal
	// (ILU(0) L factors).
	LowerUnit
	// Upper triangular, non-unit diagonal.
	Upper
)

// Stage is one step of a preconditioner application.
//
// A solve stage carries a schedule — the pivots as an array and, for a
// triangular shape, the sparse.TriSchedule of its factor — built once by
// this package's constructors, where a zero pivot or a malformed factor is
// reported, and never written again: preconditioners are shared across
// service workers. A solve stage written as a literal, Stage{Op, M, Shape},
// has none: every Apply and ApplyDotAbs builds (one pass over M, a second
// over the strict triangle of a one-block factor that may run lagged, O(n)
// words) and discards one, reporting what construction would have — same
// results, same bits, at a price only tests should pay.
type Stage struct {
	Op    StageOp
	M     *sparse.CSR
	Shape TriShape // meaningful for StageSolve

	tri  *sparse.TriSchedule // Lower, LowerUnit, Upper
	diag []float64           // Diagonal
}

// solveStage returns the solve stage of m with its schedule built.
func solveStage(m *sparse.CSR, shape TriShape) (Stage, error) {
	s := Stage{Op: StageSolve, M: m, Shape: shape}
	var err error
	switch shape {
	case Diagonal:
		s.diag = m.Diag(nil)
		for i, d := range s.diag {
			if d == 0 {
				return s, fmt.Errorf("precond: zero diagonal at %d", i)
			}
		}
	case Lower, LowerUnit, Upper:
		s.tri, err = sparse.NewTriSchedule(m, shape == Upper, shape == LowerUnit)
	default:
		err = fmt.Errorf("precond: unknown stage shape %d", shape)
	}
	return s, err
}

// scheduled returns s with a schedule: s itself unless it is a solve stage
// written as a literal.
func (s Stage) scheduled() (Stage, error) {
	if s.Op != StageSolve || s.tri != nil || s.diag != nil {
		return s, nil
	}
	return solveStage(s.M, s.Shape)
}

// Apply runs the stage: out := stage(in). out and in must not alias for
// StageMul; solves tolerate aliasing. ABFT schemes use this to interleave
// checksum updates between the stages of a composed preconditioner.
func (s Stage) Apply(out, in []float64) error {
	s, err := s.scheduled()
	if err != nil {
		return err
	}
	switch {
	case s.Op == StageMul:
		s.M.MulVec(out, in)
		return nil
	case s.Op != StageSolve:
		return fmt.Errorf("precond: unknown stage op %d", s.Op)
	case s.Shape == Diagonal:
		return s.solveDiagonal(out, in, 0, len(out))
	}
	return s.tri.Solve(out, in)
}

// solveDiagonal is the element-wise solve over rows [lo, hi).
func (s Stage) solveDiagonal(out, in []float64, lo, hi int) error {
	if len(out) != len(s.diag) || len(in) != len(s.diag) {
		return fmt.Errorf("precond: dimension mismatch in diagonal solve")
	}
	for i := lo; i < hi; i++ {
		out[i] = in[i] / s.diag[i]
	}
	return nil
}

// ApplyDotAbs is Apply that also takes, inside the sweep that streams the
// vector anyway, the row reductions the stage's checksum update needs: it
// fills every leaf of lv with the partials of rows[j]·out and
// Σ|rows[j]_i·out_i| for a solve (Eq. 4 reads the solution), of rows[j]·in
// and its absolute sum for a multiply (Eq. 2 reads the operand), and the
// caller folds them. Result and folded reductions are bitwise Apply's and
// vec.DotAbs's. Aliasing is as for Apply.
func (s Stage) ApplyDotAbs(out, in []float64, rows [][]float64, lv *vec.Leaves) error {
	s, err := s.scheduled()
	if err != nil {
		return err
	}
	switch {
	case s.Op == StageMul:
		s.M.MulVecDotAbs(out, in, rows, lv, 0, 0, s.M.Rows)
		return nil
	case s.Op != StageSolve:
		return fmt.Errorf("precond: unknown stage op %d", s.Op)
	case s.Shape == Diagonal:
		// Four leaves at a time: one lockstep group of the leaf filler.
		for lo, n := 0, len(out); lo < n; lo += 4 * vec.Block {
			hi := min(lo+4*vec.Block, n)
			if err := s.solveDiagonal(out, in, lo, hi); err != nil {
				return err
			}
			lv.FillBlocks(rows, out, lo/vec.Block, vec.Blocks(hi))
		}
		return nil
	}
	return s.tri.SolveDotAbs(out, in, rows, lv)
}

// Preconditioner solves M·z = r for z, and exposes its explicit stage
// matrices so ABFT schemes can encode them once and propagate checksums
// through every application.
type Preconditioner interface {
	// Apply solves M·z = r. z and r must have length Dims() and must not
	// alias.
	Apply(z, r []float64) error
	// Stages returns the stage sequence the application is composed of,
	// in application order. An empty slice means M = I.
	Stages() []Stage
	// Dims returns the system order.
	Dims() int
	// Name identifies the preconditioner in reports.
	Name() string
}

// staged is the shared implementation: a named sequence of stages, with a
// scratch buffer for the output of a multiply stage whose operand is z.
type staged struct {
	name    string
	n       int
	stages  []Stage
	scratch []float64 // nil unless a stage multiplies
}

// newStaged returns the preconditioner that applies stages in order, each
// solve stage with its schedule built.
func newStaged(name string, n int, stages ...Stage) (Preconditioner, error) {
	p := &staged{name: name, n: n, stages: stages}
	for i, st := range stages {
		var err error
		if stages[i], err = st.scheduled(); err != nil {
			return nil, fmt.Errorf("precond: %s: %w", name, err)
		}
		if st.Op == StageMul && p.scratch == nil {
			p.scratch = make([]float64, n)
		}
	}
	return p, nil
}

func (p *staged) Dims() int       { return p.n }
func (p *staged) Name() string    { return p.name }
func (p *staged) Stages() []Stage { return p.stages }

func (p *staged) Apply(z, r []float64) error {
	if len(z) != p.n || len(r) != p.n {
		return fmt.Errorf("precond: dimension mismatch in %s.Apply", p.name)
	}
	if len(p.stages) == 0 {
		copy(z, r)
		return nil
	}
	// Every stage writes straight into z — a solve may run in place — but a
	// multiply needs its operand intact, so one fed from z writes to the
	// scratch instead.
	in := r
	for _, st := range p.stages {
		out := z
		if st.Op == StageMul && &in[0] == &z[0] {
			out = p.scratch
		}
		if err := st.Apply(out, in); err != nil {
			return err
		}
		in = out
	}
	if &in[0] != &z[0] {
		copy(z, in)
	}
	return nil
}

// Identity returns the no-op preconditioner M = I.
func Identity(n int) Preconditioner {
	return &staged{name: "none", n: n}
}

// Jacobi returns the diagonal (point-Jacobi) preconditioner M = diag(A).
func Jacobi(a *sparse.CSR) (Preconditioner, error) {
	n := a.Rows
	diag := a.Diag(nil)
	c := sparse.NewCOO(n, n)
	for i, d := range diag {
		if d == 0 {
			return nil, fmt.Errorf("precond: Jacobi requires nonzero diagonal (row %d)", i)
		}
		c.Add(i, i, d)
	}
	return newStaged("jacobi", n, Stage{Op: StageSolve, M: c.ToCSR(), Shape: Diagonal})
}
