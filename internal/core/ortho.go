package core

import (
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// OrthoPCG solves the SPD system A·x = b with PCG protected by the
// Chen-style online-orthogonality baseline (§2, [6]): every DetectInterval
// iterations it checks the residual relationship r = b − A·x (one full MVM
// plus vector comparison) and rolls back to a checkpoint when the
// relationship is broken.
//
// The scheme's limitations, reproduced faithfully:
//   - detection costs a full MVM, so checking must be infrequent, raising
//     rollback losses;
//   - it applies only to solvers whose vectors satisfy such relationships —
//     there is no OrthoJacobi or OrthoChebyshev, and BiCGSTAB's lack of
//     orthogonality structure is why §6.3 exercises it;
//   - errors that do not propagate into the checked vectors escape: a cache
//     fault in a preconditioner solve corrupts z while r stays clean, so
//     the residual relationship is untouched and there is nothing to
//     detect (Table 3's cache/register "No").
func OrthoPCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPCG, Orthogonality, a, m, b, opts)
}

// residGapTol is the residual-relationship tolerance: the gap
// ‖(b−Ax) − r‖/‖b‖ grows only with round-off for a healthy run, while an
// injected error makes it jump by orders of magnitude.
const residGapTol = 1e-8

// gapGuard is the orthogonality baseline's policy over the unprotected
// operations: the residual gap is checked at every detect boundary and at
// the convergence exit, and {x, p, r} are checkpointed — r included,
// because the relationship it is checked against is the only protection
// there is, so a restored r must be the one that was checked. A lossy
// restore rounds x and r independently and breaks the relationship to
// residGapTol; the driver then rebuilds r = b − A·x, this baseline's
// analogue of checksum re-anchoring.
type gapGuard struct {
	noGuard
	trueR *Vec
}

// broken measures the residual gap: one full MVM.
func (g *gapGuard) broken(k *run) bool {
	k.Residual(g.trueR, k.b, k.x)
	vec.Sub(g.trueR.Data, g.trueR.Data, k.r.Data)
	k.res.Stats.RecoveryMVMs++
	if k.Norm2(g.trueR.Data)/k.normB <= residGapTol {
		return false
	}
	k.res.Stats.Detections++
	return true
}

func (g *gapGuard) boundary(k *run) bool {
	k.res.Stats.Verifications++
	return !g.broken(k)
}

func (g *gapGuard) checkpoint(k *run) bool {
	k.save()
	return true
}

// exit is the final residual-relationship check before accepting.
func (g *gapGuard) exit(k *run, _ *Vec) status {
	if g.broken(k) {
		return faulted
	}
	return converged
}

func (g *gapGuard) keepsResidual() bool { return true }
