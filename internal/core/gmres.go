package core

import (
	"fmt"
	"math"

	"newsum/internal/checksum"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// BasicGMRES solves A·x = b with restarted, right-preconditioned GMRES(m)
// under basic online ABFT protection — the paper's §5.3 recipe applied to a
// "variation of GMRES" from its §1 applicability list.
//
// Every Arnoldi step is one PCO (ẑ = M⁻¹vₖ), one MVM (w = A·ẑ) and a
// Gram-Schmidt sequence of VLOs, all carrying checksums. Detection verifies
// the freshly orthogonalized basis vector every DetectInterval steps; the
// Krylov cycle structure supplies natural checkpoints — the solution x
// changes only at restarts, so recovery from any error inside a cycle is
// simply discarding the cycle and restarting from the verified x (the
// checkpointed state is {x} alone).
//
// That is why GMRES keeps its own loop instead of running under the driver
// (drive.go): its checkpoint is the restart cycle, not every cd iterations,
// and its rollback discards a cycle rather than restoring a direction —
// forcing it through the driver would put a method branch in the scaffold
// every other method shares. It shares the engine, the set-up and the
// closing accounting.
func BasicGMRES(a *sparse.CSR, m precond.Preconditioner, b []float64, restart int, opts Options) (Result, error) {
	var res Result
	st, err := begin(a, m, b, checksum.Single, &opts, &res.Stats)
	if err != nil {
		return res, err
	}
	e, x, bT, normB, tolRes, maxIter := st.e, st.x, st.b, st.normB, st.tol, st.maxIter
	if restart < 1 {
		restart = 30
	}
	if restart > e.n {
		restart = e.n
	}

	// Arnoldi storage: tracked basis vectors so checksums ride along.
	v := make([]*Vec, restart+1)
	for i := range v {
		v[i] = e.NewVec(fmt.Sprintf("v%d", i))
	}
	h := make([][]float64, restart+1)
	for i := range h {
		h[i] = make([]float64, restart)
	}
	cs := make([]float64, restart)
	sn := make([]float64, restart)
	g := make([]float64, restart+1)
	// y is the triangular-solve workspace for the restart-cycle solution
	// update, sized once for the largest cycle (ISSUE 10: it used to be
	// allocated inside the restart loop, churning every cycle).
	y := make([]float64, restart)
	w := e.NewVec("w")
	zhat := e.NewVec("zhat")

	res.X = x.Data
	var relres float64
	total := 0
	d := opts.DetectInterval

	// finish closes the accounting on every exit path, as run.finish does.
	finish := func(err error) (Result, error) {
		res.Residual = relres
		res.Stats.InjectedErrors = e.Injected()
		return res, err
	}

	store := opts.newStore()
	saveCheckpoint := func() {
		store.Save(total,
			map[string][]float64{"x": x.Data}, nil,
			map[string][]float64{"x": x.S, "x.Eta": x.Eta})
		res.Stats.Checkpoints++
		res.Stats.CheckpointBytes = store.BytesCopied
		res.Stats.CheckpointStoredBytes = store.BytesStored
		e.Strike(total, &store)
	}
	// restoreX rolls the solution back to the last cycle snapshot, charging
	// one rollback and the cycle's wasted iterations against the budgets.
	restoreX := func(wasted int) bool {
		res.Stats.Rollbacks++
		res.Stats.WastedIterations += wasted
		if res.Stats.Rollbacks > opts.MaxRollbacks {
			return false
		}
		if !store.HasSnapshot() {
			// Corruption before the first cycle's snapshot: restart from
			// the zero iterate, matching the pre-store behavior.
			vec.Zero(x.Data)
			e.Reanchor(x)
			return true
		}
		if _, err := store.Restore(
			map[string][]float64{"x": x.Data}, nil,
			map[string][]float64{"x": x.S, "x.Eta": x.Eta}); err != nil {
			return false
		}
		if store.Lossy() {
			// Quantized restore: re-anchor x's checksums from the perturbed
			// data before the cycle-start verification sees them.
			e.Reanchor(x)
			res.Stats.LossyRestores++
		}
		return true
	}

	for total < maxIter {
		if err := opts.ctxErr("GMRES"); err != nil {
			return finish(err)
		}
		// Cycle start: x is the only live state. Verify it (it was either
		// freshly verified last cycle or is the initial guess), snapshot
		// it, and build the residual.
		if !e.Verify(x) {
			// x corrupted between cycles (e.g. a memory fault): restore
			// the previous snapshot.
			if !restoreX(0) {
				return finish(rollbackStormErr("GMRES", Basic))
			}
		}
		saveCheckpoint()

		e.Residual(w, bT, x)
		beta := e.Norm2(w.Data)
		relres = beta / normB
		if relres <= tolRes {
			res.Converged = true
			break
		}
		e.scaleInto(total, v[0], 1/beta, w)
		for i := range g {
			g[i] = 0
		}
		g[0] = beta

		k := 0
		cycleBad := false
		for ; k < restart && total < maxIter; k++ {
			total++
			if err := e.PCO(total-1, zhat, v[k]); err != nil {
				return finish(err)
			}
			e.MVM(total-1, w, zhat)
			// Modified Gram–Schmidt: dots are unprotected scalars (§3),
			// the axpys carry checksums.
			for i := 0; i <= k; i++ {
				h[i][k] = e.Dot(w.Data, v[i].Data)
				e.Axpy(total-1, w, -h[i][k], v[i])
			}
			h[k+1][k] = e.Norm2(w.Data)
			if h[k+1][k] > 0 {
				e.scaleInto(total-1, v[k+1], 1/h[k+1][k], w)
			}

			// Lazy detection on the newly produced basis vector: any error
			// in the PCO, MVM or orthogonalization VLOs of the last d
			// steps has propagated into it.
			if total%d == 0 || h[k+1][k] == 0 {
				if !e.Verify(v[k+1]) {
					cycleBad = true
					k++
					break
				}
			}

			for i := 0; i < k; i++ {
				t := cs[i]*h[i][k] + sn[i]*h[i+1][k]
				h[i+1][k] = -sn[i]*h[i][k] + cs[i]*h[i+1][k]
				h[i][k] = t
			}
			denom := math.Hypot(h[k][k], h[k+1][k])
			if denom <= 0 {
				return finish(breakdownErr("GMRES", Basic, total, "Hessenberg breakdown"))
			}
			cs[k] = h[k][k] / denom
			sn[k] = h[k+1][k] / denom
			h[k][k] = denom
			h[k+1][k] = 0
			g[k+1] = -sn[k] * g[k]
			g[k] *= cs[k]

			res.Iterations = total
			relres = math.Abs(g[k+1]) / normB
			if relres <= tolRes {
				k++
				break
			}
		}

		if cycleBad {
			// Recovery: discard the Krylov cycle, restore the snapshot and
			// restart. No other state survives a cycle boundary.
			if !restoreX(k) {
				return finish(rollbackStormErr("GMRES", Basic))
			}
			continue
		}

		// x += M⁻¹·(V·y): triangular solve for y, then tracked updates.
		for i := k - 1; i >= 0; i-- {
			s := g[i]
			for j := i + 1; j < k; j++ {
				s -= h[i][j] * y[j]
			}
			y[i] = s / h[i][i]
		}
		vec.Zero(w.Data)
		e.Reanchor(w)
		for j := 0; j < k; j++ {
			e.Axpy(total-1, w, y[j], v[j])
		}
		if err := e.PCO(total-1, zhat, w); err != nil {
			return finish(err)
		}
		e.Axpy(total-1, x, 1, zhat)

		// Verify the updated solution; a corrupted update discards the
		// cycle like any other error.
		if !e.Verify(x) {
			if !restoreX(k) {
				return finish(rollbackStormErr("GMRES", Basic))
			}
			continue
		}

		if relres <= tolRes {
			// Confirm with the true residual (restart drift).
			e.mulVec(w.Data, x.Data)
			vec.Sub(w.Data, bT.Data, w.Data)
			relres = e.Norm2(w.Data) / normB
			if relres <= tolRes*10 {
				res.Converged = true
				break
			}
		}
	}

	if !res.Converged {
		_, err := notConverged("ABFT GMRES", res, relres)
		return finish(err)
	}
	return finish(nil)
}
