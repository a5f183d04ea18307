package par

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"sync"

	"newsum/internal/checkpoint"
	"newsum/internal/core"
	"newsum/internal/sparse"
)

// This file is the distributed counterpart of internal/core/drive.go. Every
// branch the driver takes is decided on all-reduced values, so every rank
// takes it at the same iteration and the solver counters are replicated.

// status is the outcome of one pass through the driver's iteration.
type status int

const (
	advanced  status = iota // carry on from k.i
	converged               // the residual met the tolerance and verified clean
	faulted                 // roll back; an error beside it replaces the storm error
	failed                  // a hard error: abort
)

// recurrence is one iterative method under the driver (see core's).
type recurrence interface {
	shape() *krylov
	start(k *rankRun) error
	// step runs iteration k.i; it calls k.advance once x and r have moved
	// and hands a residual under the tolerance to k.exit.
	step(k *rankRun) (status, error)
	scalars(into map[string]float64)
	setScalars(from map[string]float64)
	// restart rebuilds the direction, and what hangs off it, from x and r.
	restart(k *rankRun) error
	// restored rebuilds what a rollback does not restore, once {x, p}, the
	// scalars and r = b − A·x are back (and, if lossy, restart has run).
	restored(k *rankRun, snapIter int, lossy bool) error
}

// krylov is what a recurrence tells the driver: per-method facts.
type krylov struct {
	name  string        // in error texts
	outer []*DistVector // what the boundary verifies, x and r first
	// verifyP: p is verified before every snapshot. core does so for PCG
	// too; par's PCG does not, and closing the gap — three more scalar
	// all-reduces per checkpoint per rank — is ROADMAP item 3(ii)'s re-pin.
	verifyP bool
	forward bool // the forward tier runs under Options.ForwardRecovery
	// Trace wording, pinned by the golden timelines.
	detectMsg, snapMsg, restartMsg string
}

// rankRun is one rank's solve in flight.
type rankRun struct {
	*rankEngine
	rec     recurrence
	kr      *krylov
	forward bool
	err     error

	x, r, p       *DistVector // p, the direction, is checkpointed beside x
	i             int
	relres, normB float64

	// The checkpointed set {x, p}: maps built once, so saves allocate nothing.
	store      checkpoint.Store
	data, sums map[string][]float64
	scal       map[string]float64
}

// solve runs the driver on one goroutine rank per block of the nnz-balanced
// partition and merges the per-rank instrumentation into rank 0's result.
func solve(a *sparse.CSR, b []float64, nranks int, opts Options, withPrecond bool, newRec func(*rankRun) recurrence) (Result, error) {
	switch {
	case a.Rows != a.Cols:
		return Result{}, fmt.Errorf("par: matrix must be square")
	case len(b) != a.Rows:
		return Result{}, fmt.Errorf("par: rhs length %d, want %d", len(b), a.Rows)
	case nranks < 1 || nranks > a.Rows:
		return Result{}, fmt.Errorf("par: nranks %d out of range", nranks)
	}
	opts.normalize(a.Rows)
	part := NnzPartition(a, nranks)
	comms := NewTeamTopology(nranks, opts.Topology)
	results, errs := make([]Result, nranks), make([]error, nranks)
	var wg sync.WaitGroup
	for r := range comms {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			results[rank], errs[rank] = drive(comms[rank], a, b, part, opts, withPrecond, newRec)
		}(r)
	}
	wg.Wait()
	res := results[0]
	for _, o := range results[1:] {
		res.InjectedFaults += o.InjectedFaults
		res.CheckpointBytes += o.CheckpointBytes
		res.CheckpointStoredBytes += o.CheckpointStoredBytes
		res.Comm.Merge(o.Comm)
	}
	return res, cmp.Or(errs...)
}

// drive is one rank's solve; withPrecond gives it the ILU(0) of its block.
func drive(c *Comm, a *sparse.CSR, b []float64, part Partition, opts Options, withPrecond bool, newRec func(*rankRun) recurrence) (res Result, err error) {
	e, err := newRankEngine(c, a, b, part, &opts, &res, withPrecond)
	if err != nil {
		return res, err
	}
	k := &rankRun{rankEngine: e, store: checkpoint.Store{
		Codec: opts.CheckpointCodec, AbsBound: opts.CheckpointAbsBound, RelBound: opts.CheckpointRelBound,
	}}
	k.x, k.r, k.p = k.newVec(), k.newVec(), k.newVec()
	// r = b − A·x0 (x0 = 0, so r = b) with exact local checksums.
	copyDist(k.r, k.bL)
	k.rec = newRec(k)
	k.kr = k.rec.shape()
	k.forward = opts.ForwardRecovery && k.kr.forward
	for live := k.open(); live; live = k.turn() {
	}
	res.Comm = c.Stats()
	return res, k.err
}

// open builds the state the first turn starts from. False means the solve
// is already over: x0 met the tolerance, or the recurrence could not start.
func (k *rankRun) open() bool {
	if k.normB = k.norm2(k.bL); k.normB <= 0 {
		k.normB = 1
	}
	if k.relres = k.norm2(k.r) / k.normB; k.relres <= k.opts.Tol {
		k.res.Converged = true
		return k.conclude()
	}
	if k.err = k.rec.start(k); k.err != nil {
		return false
	}
	k.data = map[string][]float64{"x": k.x.Data, "p": k.p.Data}
	k.sums = map[string][]float64{"x": k.x.S, "p": k.p.S}
	k.scal = map[string]float64{}
	return true
}

// turn is one trip round the loop; false means the solve is over, with the
// outcome in k.res and k.err.
//
//hot:loop the distributed protected iteration of every method
func (k *rankRun) turn() bool {
	//hot:cold iteration-budget exit: at most once per solve
	if k.i >= k.opts.MaxIter {
		return k.conclude()
	}
	k.curIter, k.curSeq = k.i, 0
	if err := k.canceled(); err != nil {
		//hot:cold cancellation exit: at most once per solve
		return k.finish(err)
	}
	st, err := k.iterate()
	//hot:cold exits and recovery: at most once per solve or per detection
	switch st {
	case converged:
		k.res.Converged = true
		return k.conclude()
	case failed:
		k.err = err
		return false
	case faulted:
		if !k.rollback() {
			return k.finish(cmp.Or(err, fmt.Errorf("par: ABFT %s: %w", k.kr.name, ErrRollbackStorm)))
		}
	}
	return true
}

// canceled is the replicated cancellation probe (see Options.Ctx); without
// a context it costs nothing.
func (k *rankRun) canceled() error {
	ctx := k.opts.Ctx
	if ctx == nil {
		return nil
	}
	flag := 0.0
	if ctx.Err() != nil {
		flag = 1
	}
	if k.c.AllReduceSum(flag) <= 0 {
		return nil
	}
	// On a replicated verdict this rank's context may not have settled yet;
	// the cause is still cancellation.
	//hot:cold the abort error: at most once per solve
	return fmt.Errorf("par: ABFT %s solve canceled: %w", k.kr.name, cmp.Or(ctx.Err(), context.Canceled))
}

// iterate is one pass of the loop: outer-level detection every d
// iterations, a snapshot every cd — a multiple of d, so of state the
// boundary just verified — then the recurrence's step.
func (k *rankRun) iterate() (status, error) {
	if k.i > 0 && k.i%k.opts.DetectInterval == 0 {
		xOK, rOK, others := k.verifyOuter(k.kr.outer)
		//hot:cold detection handling: forward repair first, else rollback
		if !(xOK && rOK && others == 0) && !k.repair(k.kr.detectMsg, xOK, rOK, others, false) {
			return faulted, nil
		}
	}
	if k.i%k.opts.CheckpointInterval == 0 {
		// p must verify clean before it becomes the rollback target.
		//hot:cold a corrupted direction: forward repair first, else rollback
		if k.kr.verifyP && k.i > 0 && !k.verify(k.p) && !k.repair("pre-checkpoint: checksum(p) mismatch", true, true, 1, false) {
			return faulted, nil
		}
		k.save()
	}
	return k.rec.step(k)
}

// verifyOuter verifies vs in order, sorting failures into x, r and a count
// of the rest. Without the forward tier it stops at the first failure; the
// tier needs every verdict, since each failed vector is repaired on its own.
func (k *rankRun) verifyOuter(vs []*DistVector) (xOK, rOK bool, others int) {
	xOK, rOK = true, true
	for j, v := range vs {
		if k.verify(v) {
			continue
		}
		switch j {
		case 0:
			xOK = false
		case 1:
			rOK = false
		default:
			others++
		}
		if !k.forward {
			break
		}
	}
	return xOK, rOK, others
}

// advance closes iteration k.i and reports whether the residual converged.
func (k *rankRun) advance(resNorm float64) bool {
	k.i++
	k.res.Iterations = k.i
	k.relres = resNorm / k.normB
	return k.relres <= k.opts.Tol
}

// scalarSanityBound is the largest magnitude a recurrence scalar can take
// before it is treated as corrupted: beyond ≈√MaxFloat64 any product of two
// such scalars overflows, and an exponent-bit upset scales an iterate
// element by 2^±1024 — landing its dot products far past this bound. The
// guard matters because a huge denominator is then divided away (α = ρ/r̂ᵀv
// collapses toward zero), scaling the corruption below the checksum
// detection threshold before the next verification boundary sees it.
const scalarSanityBound = 1e150

// breakdownSuspect reports whether a replicated recurrence scalar is
// unusable — exactly zero, NaN, Inf, or absurdly large.
func breakdownSuspect(v float64) bool {
	//lint:ignore floatcmp exact zero is the breakdown condition itself
	return v == 0 || math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > scalarSanityBound
}

// breakdown records a suspect scalar as a detection: right after a
// protected MVM it is far more likely a propagated fault than a genuine
// Lanczos-type breakdown, so the driver rolls back, and only a spent budget
// surfaces the breakdown error returned beside it.
//
//hot:cold suspect-scalar detection: runs only after a fault
func (k *rankRun) breakdown(format string, args ...any) (status, error) {
	what := fmt.Sprintf(format, args...)
	k.detect(k.i, "breakdown suspect: %s", what)
	return faulted, fmt.Errorf("par: %s breakdown at iteration %d: %s", k.kr.name, k.i, what)
}

// exit verifies x and the residual resid (named what) before declaring
// victory, so a corrupted small residual cannot smuggle out a wrong solution.
//
//hot:cold convergence exit: verified once per solve, recovery on a corrupted residual
func (k *rankRun) exit(resid *DistVector, what string) status {
	xOK, rOK, _ := k.verifyOuter([]*DistVector{k.x, resid})
	if xOK && rOK {
		return converged
	}
	// The convergence exit skips the recurrence tail, so a forward repair
	// here always restarts.
	if !k.repair("converged "+what+" failed verification", xOK, rOK, 0, true) {
		return faulted
	}
	k.relres = k.norm2(k.r) / k.normB
	if k.relres <= k.opts.Tol && k.verify(k.x) && k.verify(k.r) {
		return converged
	}
	return advanced
}

// conclude closes a solve that ran its course with x gathered on every rank
// (into scratch but on rank 0, whose result is the team's).
//
//hot:cold once per solve
func (k *rankRun) conclude() bool {
	x := k.xg
	if k.c.Rank() == 0 {
		x = make([]float64, k.n)
	}
	k.c.AllGather(x, k.x.Data, k.lo)
	k.res.X = x
	if k.res.Converged {
		return k.finish(nil)
	}
	return k.finish(fmt.Errorf("par: ABFT %s did not converge in %d iterations (relres %.3e)", k.kr.name, k.res.Iterations, k.relres))
}

// finish closes the accounting; false is the "no more turns" answer.
func (k *rankRun) finish(err error) bool {
	k.res.Residual = k.relres
	k.err = err
	return false
}

// save snapshots {x, p}, the recurrence scalars and the carried checksums,
// then fires the checkpoint strikes scheduled against this rank: the copy is
// poisoned, the live state is not, so the corruption stays dormant until a
// rollback restores it.
//
//hot:cold checkpoint machinery: invoked once per cd iterations
func (k *rankRun) save() {
	k.rec.scalars(k.scal)
	k.store.Save(k.i, k.data, k.scal, k.sums)
	k.res.Checkpoints++
	k.res.CheckpointBytes = k.store.BytesCopied
	k.res.CheckpointStoredBytes = k.store.BytesStored
	k.trace(k.i, core.EvCheckpoint, k.kr.snapMsg)
	for fi, f := range k.opts.Faults {
		if k.fires(fi, TargetCheckpoint, k.i) {
			// Strike every snapshotted vector in sorted-name order (Strike's
			// visit order) so the corruption is deterministic regardless of
			// map iteration — it lands in the stored payload, whichever codec
			// encodes it.
			k.store.Strike(func(_ string, buf []float64) { strike(f, buf) })
		}
	}
}

// rollback restores the latest snapshot and rebuilds r = b − A·x and the
// recurrence's derived vectors; false means a spent budget or no snapshot.
//
//hot:cold recovery machinery: runs only after a detection
func (k *rankRun) rollback() bool {
	if k.res.Rollbacks++; k.res.Rollbacks > k.opts.MaxRollbacks {
		return false
	}
	snapIter, err := k.store.Restore(k.data, k.scal, k.sums)
	if err != nil {
		return false
	}
	k.rec.setScalars(k.scal)
	lossy := k.store.Lossy()
	if lossy {
		// The restored blocks are quantized: the exact carried checksums
		// that came back with them disagree with the perturbed data by up
		// to n·bound, which the next verification would flag as a fault.
		// Re-anchor each rank's partial checksums from the restored data —
		// a local recomputation, so the verdict stays replicated.
		k.x.LocalChecksums(k.weights, k.lo)
		k.p.LocalChecksums(k.weights, k.lo)
		k.res.LossyRestores++
	}
	k.res.WastedIterations += k.curIter - snapIter
	k.trace(k.curIter, core.EvRollback, "restored iteration %d", snapIter)
	k.residualFresh(k.r, k.x)
	// A lossy restore is always a restart: the restored direction and
	// scalars belong to the exact snapshot, and against the reconstructed
	// residual — dominated by the quantization noise A·δx — the stale
	// scalars make the first β blow up and permanently poison p.
	if (lossy && k.rec.restart(k) != nil) || k.rec.restored(k, snapIter, lossy) != nil {
		return false
	}
	k.i = snapIter
	return true
}

// repair records the detection why, then runs the forward-recovery tier
// (see Options.ForwardRecovery; after Fasi–Langou–Robert–Uçar,
// arXiv:1511.04478, as core's sumGuard.repair). xOK and rOK are the
// verdicts on x and r, others counts the failed vectors beyond them;
// restart forces the Krylov restart even without a data repair. False
// sends the driver to the checkpoint.
//
//hot:cold forward recovery rides the recovery budget
func (k *rankRun) repair(why string, xOK, rOK bool, others int, restart bool) bool {
	k.detect(k.i, why)
	if !k.forward || k.res.ForwardRepairs >= k.opts.MaxRollbacks {
		return false
	}
	// Vectors beyond x and r are never repaired element-wise: even a
	// §5.2-confirmed correction can be a fake accepted under a collapsed
	// scalar. The restart rebuilds them from identity-exact state.
	repaired := others
	restart = restart || others > 0
	rebuildR := false
	if !xOK {
		out, diag := k.forwardDiagnose(k.x)
		switch out {
		case forwardRejected:
			k.res.RejectedCorrections++
			k.trace(k.i, core.EvForwardRepair, "rejected fake correction on x; falling back")
			return false
		case forwardFailed:
			k.trace(k.i, core.EvForwardRepair, "localization failed on x; falling back")
			return false
		case forwardCorrected:
			// An in-place correction moves the iterate, so the carried
			// residual no longer satisfies r = b − A·x even when r's own
			// verification passed; rebuild it below.
			rebuildR = true
			k.trace(k.i, core.EvForwardRepair, "corrected x[%d] -= %.6g", diag.Pos, diag.Magnitude)
		case forwardReanchored:
			// Re-anchoring accepts x's data, including any sub-screen
			// perturbation the old checksums disagreed with, while the
			// recurrence residual tracks the old checksum state; rebuild
			// r = b − A·x below so the two cannot drift apart permanently.
			rebuildR = true
			k.trace(k.i, core.EvForwardRepair, "re-anchored checksum(x)")
		}
		repaired++
	}
	if !rOK {
		// No in-place diagnosis is trusted on r — not even a confirmed
		// §5.2 correction: a collapsed recurrence scalar can shrink an
		// aliased multi-error pattern below the confirmation threshold
		// (suppressed by ~1/j³ at large indices), and accepting it
		// re-anchors checksum-endorsed corruption into the recurrence's
		// fixed-point anchor (see core's BasicPCG). r = b − A·x holds for
		// any step lengths taken, so a clean x rebuilds it exactly.
		rebuildR = true
		repaired++
	}
	if rebuildR {
		if !k.verify(k.x) {
			return false
		}
		k.residualFresh(k.r, k.x)
		restart = true
		k.trace(k.i, core.EvForwardRepair, "reconstructed r = b − A·x")
	}
	if restart {
		if k.rec.restart(k) != nil {
			return false
		}
		k.trace(k.i, core.EvForwardRepair, k.kr.restartMsg)
	}
	k.res.ForwardRepairs += repaired
	k.res.RollbacksAvoided++
	if snapIter, ok := k.store.LatestIteration(); ok {
		k.res.IterationsSaved += k.i - snapIter
	}
	return true
}
