package core

import (
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// TrueResidual returns ‖b − A·x‖₂ / ‖b‖₂ computed from scratch — the
// offline-residual scheme's end-of-run verification, and the ground truth
// the coverage experiments judge every scheme's output against.
func TrueResidual(a *sparse.CSR, b, x []float64) float64 {
	r := vec.Take(len(b))
	a.MulVec(r, x)
	vec.Sub(r, b, r)
	nb := vec.Norm2(b)
	if nb <= 0 {
		nb = 1
	}
	rel := vec.Norm2(r) / nb
	vec.Put(r)
	return rel
}

// OfflineResidualPCG implements the offline-residual scheme (§6.1): run the
// unprotected solver to completion, verify the true residual at the end,
// and — if corruption slipped through — recompute the entire solve. In the
// paper's best case this costs 100% overhead whenever any error occurred.
func OfflineResidualPCG(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPCG, OfflineResidual, a, m, b, opts)
}

// OfflineResidualPBiCGSTAB is the offline-residual scheme applied to
// PBiCGSTAB: verify the true residual at the end, recompute from scratch on
// failure.
func OfflineResidualPBiCGSTAB(a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	return Solve(MethodPBiCGSTAB, OfflineResidual, a, m, b, opts)
}

// offlineResidual guards the end of the run rather than its iterations: an
// unprotected solve, one true-residual check, one full rerun on failure.
func offlineResidual(method Method, a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	tol, _ := opts.stopping(a.Rows)
	res, err := solve(method, Unprotected, a, m, b, opts, method.recurrence)
	res.Stats.Verifications++
	res.Stats.RecoveryMVMs++
	if err == nil && TrueResidual(a, b, res.X) <= 10*tol {
		return res, nil
	}
	// Detected at the end: recompute everything. Scheduled one-shot faults
	// have been consumed, so the rerun is clean; refiring injectors model
	// persistent error rates and will fail again.
	res.Stats.Detections++
	first := res.Stats
	res2, err2 := solve(method, Unprotected, a, m, b, opts, method.recurrence)
	res2.Stats.Verifications += first.Verifications + 1
	res2.Stats.Detections += first.Detections
	res2.Stats.RecoveryMVMs += first.RecoveryMVMs + 1
	res2.Stats.WastedIterations = res.Iterations
	if err2 == nil && TrueResidual(a, b, res2.X) > 10*tol {
		return notConverged("offline-residual "+method.String()+" (rerun still corrupted)", res2, res2.Residual)
	}
	return res2, err2
}
