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
type Stage struct {
	Op    StageOp
	M     *sparse.CSR
	Shape TriShape // meaningful for StageSolve
}

// Apply runs the stage: out := stage(in). out and in must not alias for
// StageMul; solves tolerate aliasing. ABFT schemes use this to interleave
// checksum updates between the stages of a composed preconditioner.
func (s Stage) Apply(out, in []float64) error {
	return s.apply(out, in)
}

// apply runs the stage: out := stage(in). out and in must not alias for
// StageMul; solves tolerate aliasing.
func (s Stage) apply(out, in []float64) error {
	switch s.Op {
	case StageMul:
		s.M.MulVec(out, in)
		return nil
	case StageSolve:
		switch s.Shape {
		case Diagonal:
			return s.solveDiagonal(out, in, 0, len(out))
		case Lower:
			return s.M.SolveLower(out, in, false)
		case LowerUnit:
			return s.M.SolveLower(out, in, true)
		case Upper:
			return s.M.SolveUpper(out, in)
		}
	}
	return fmt.Errorf("precond: unknown stage op %d", s.Op)
}

// solveDiagonal is the element-wise solve over rows [lo, hi).
func (s Stage) solveDiagonal(out, in []float64, lo, hi int) error {
	for i := lo; i < hi; i++ {
		d := s.M.At(i, i)
		//lint:ignore floatcmp exact-zero pivot is the standard singularity convention (cf. LAPACK)
		if d == 0 {
			//hot:cold singular preconditioner aborts the solve
			return fmt.Errorf("precond: zero diagonal at %d", i)
		}
		out[i] = in[i] / d
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
//
//hot:loop fused PCO stage + checksum row reductions on the protected solve path
func (s Stage) ApplyDotAbs(out, in []float64, rows [][]float64, lv *vec.Leaves) error {
	switch s.Op {
	case StageMul:
		s.M.MulVecDotAbs(out, in, rows, lv, 0, s.M.Rows)
		return nil
	case StageSolve:
		switch s.Shape {
		case Diagonal:
			for lo, n := 0, len(out); lo < n; lo += vec.Block {
				if err := s.solveDiagonal(out, in, lo, min(lo+vec.Block, n)); err != nil {
					return err
				}
				lv.FillBlock(rows, out, lo/vec.Block)
			}
			return nil
		case Lower:
			return s.M.SolveLowerDotAbs(out, in, false, rows, lv)
		case LowerUnit:
			return s.M.SolveLowerDotAbs(out, in, true, rows, lv)
		case Upper:
			return s.M.SolveUpperDotAbs(out, in, rows, lv)
		}
	}
	//hot:cold malformed stage aborts the solve
	return fmt.Errorf("precond: unknown stage op %d", s.Op)
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

// staged is the shared implementation: a named sequence of stages with a
// scratch buffer for intermediate vectors.
type staged struct {
	name    string
	n       int
	stages  []Stage
	scratch []float64
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
	in := r
	for idx, st := range p.stages {
		var out []float64
		if idx == len(p.stages)-1 {
			out = z
		} else if idx%2 == 0 {
			out = p.scratch
		} else {
			out = z
		}
		// StageMul cannot alias; route through scratch if needed.
		if st.Op == StageMul && &out[0] == &in[0] {
			out = p.scratch
		}
		if err := st.apply(out, in); err != nil {
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
		//lint:ignore floatcmp exact-zero pivot is the standard singularity convention (cf. LAPACK)
		if d == 0 {
			return nil, fmt.Errorf("precond: Jacobi requires nonzero diagonal (row %d)", i)
		}
		c.Add(i, i, d)
	}
	m := c.ToCSR()
	return &staged{
		name:    "jacobi",
		n:       n,
		stages:  []Stage{{Op: StageSolve, M: m, Shape: Diagonal}},
		scratch: make([]float64, n),
	}, nil
}
