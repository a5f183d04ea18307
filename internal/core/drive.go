package core

import (
	"fmt"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/precond"
	"newsum/internal/sparse"
)

// Backend is the seam between the driver and what runs a solve's
// operations. Three implement it: the engine (engine.go), the online-MV
// baseline (onlinemv.go) and internal/par's rank engine, which runs one
// rank's block of a distributed solve — there Data is the rank's block, S
// its partial checksums, and every reduction and verdict is all-reduced, so
// each rank's driver takes every branch at the same iteration. The driver,
// its guards and the recurrences reach the backend only through it. The
// iter argument is the fault model's clock; −1 marks clean set-up and
// recovery work no scheduled event can match.
type Backend interface {
	// The operation vocabulary the Krylov recurrences are written against:
	// the paper's vector-generating operations (MVM, PCO and the VLO forms)
	// plus the two reductions.
	MVM(iter int, dst, src *Vec)
	PCO(iter int, dst, src *Vec) error
	Axpy(iter int, y *Vec, alpha float64, x *Vec)
	Xpby(iter int, dst, x *Vec, beta float64, y *Vec)
	Axpby(iter int, dst *Vec, alpha float64, x *Vec, beta float64, y *Vec)
	Dot(u, v []float64) float64
	Norm2(u []float64) float64

	// NewVec returns a zero vector with consistent checksums. The backend
	// owns it, and may hand its storage to the next solve once this one
	// is over.
	NewVec(name string) *Vec
	// Verify checks v's first checksum relation — the outer-level
	// verification of Algorithm 1 line 6 — re-anchoring it on success and
	// counting a detection on failure.
	Verify(v *Vec) bool
	// InnerCheck is the two-level scheme's inner level on an MVM output
	// q = A·src (Algorithm 2 lines 16–27); a located single error comes back
	// corrected in place.
	InnerCheck(q, src *Vec) checksum.TripleDiagnosis
	// ForwardDiagnose re-measures all three checksum relations of v and
	// repairs it in place (forward.go).
	ForwardDiagnose(v *Vec) (checksum.Outcome, checksum.TripleDiagnosis)
	// TakeFlag reports and clears a failed eager check.
	TakeFlag() bool

	// Clean set-up and recovery work: no fault fires, and the checksums of
	// the output are re-anchored from its data.
	Residual(r, b, x *Vec)            // r := b − A·x
	MulClean(dst, src *Vec)           // dst := A·src
	PrecondClean(dst, src *Vec) error // dst := M⁻¹·src
	Reanchor(v *Vec)

	// Strike fires the checkpoint-buffer faults scheduled at iter into the
	// snapshot just saved.
	Strike(iter int, store *checkpoint.Store)
	// Gather returns the whole of x, the solution a solve hands back.
	Gather(x *Vec) []float64
	// Injected counts the faults that have fired so far.
	Injected() int
}

// status is the outcome of one pass through the driver's iteration.
type status int

const (
	// advanced: the iteration completed (or a detection was repaired in
	// place); carry on from k.i.
	advanced status = iota
	// converged: the residual met the tolerance and the guard accepted it.
	converged
	// faulted: a detection nothing could repair in place; roll back.
	faulted
	// failed: a hard error (breakdown, preconditioner failure); abort.
	failed
)

// recurrence is one iterative method: the numerical iteration and what the
// driver must know to checkpoint and rebuild its state.
type recurrence interface {
	// shape describes the recurrence to the driver and the guards.
	shape() *krylov
	// start builds the first iteration's state from the initial residual.
	start(k *run) error
	// step runs iteration k.i through the vocabulary. It reports a fault
	// the guard flagged mid-iteration, calls k.advance once the iterate and
	// residual have moved, and hands a residual under the tolerance to the
	// guard's exit.
	step(k *run) (status, error)
	// scalars and setScalars move the recurrence scalars into and out of
	// the checkpoint's scalar map.
	scalars(into map[string]float64)
	setScalars(from map[string]float64)
	// restart is the Krylov restart: rebuild the direction (and whatever
	// hangs off it) from the current x and r alone.
	restart(k *run) error
	// restored rebuilds what a rollback does not restore, after {x, p} and
	// the scalars are back and r = b − A·x has been recomputed. For the
	// Krylov methods a lossy restore is always a restart: the restored
	// direction and scalars belong to the exact snapshot state, and against
	// the reconstructed residual — dominated by the quantization noise A·δx
	// rather than the old convergence tail — the stale scalars make the
	// first β blow up and permanently poison p, stalling the recurrence at
	// the error bound. (Chebyshev's scalars are a function of the iteration
	// count alone, so it only re-anchors the quantized direction.)
	restored(k *run, snapIter int, lossy bool) error
}

// krylov is the description a recurrence gives of itself.
type krylov struct {
	// p is the search direction: checkpointed beside x, verified before
	// every snapshot (a corrupted direction in the checkpoint would make
	// every future rollback futile). nil for a method that keeps none —
	// Jacobi's checkpoint set is {x}.
	p *Vec
	// verifyP: p is verified before every snapshot. Cleared only for
	// internal/par's PCG, whose collective counts are pinned without the
	// scalar all-reduces the check costs; the benchmark re-pin that brings η
	// to par brings it this check too (ROADMAP item 3(ii)).
	verifyP bool
	// watch lists what the outer level verifies beside x and r. Every
	// other vector's error propagates into x or r (Table 2).
	watch []*Vec
	// xOnly: the method rebuilds r from x at the top of every iteration
	// (Jacobi), so x is its whole state — the outer level and the
	// convergence exit verify x alone, and a rollback has no residual to
	// reconstruct.
	xOnly bool
	// Trace wording, pinned by the golden timelines.
	detectMsg, snapMsg, rebuiltMsg, restartMsg string
}

// guard is the detection policy attached at the operation boundaries of a
// recurrence. Each hook reports whether the solve may carry on; a false
// (or faulted) answer sends the driver to the checkpoint.
type guard interface {
	// boundary runs every DetectInterval iterations, before the step.
	boundary(k *run) bool
	// checkpoint runs every CheckpointInterval iterations, on state the
	// boundary just accepted; it snapshots if the policy keeps snapshots.
	checkpoint(k *run) bool
	// inner runs on the output of iteration i's MVM; true means roll back.
	inner(k *run, i int, q, src *Vec) bool
	// suspect reports whether a recurrence scalar must be treated as a
	// propagated fault (see SuspectScalar).
	suspect(x float64) bool
	// exit decides a residual (carried in resid) under the tolerance:
	// converged, advanced (repaired in place, not there yet) or faulted.
	exit(k *run, resid *Vec) status
	// keepsResidual: r is checkpointed and restored, not recomputed.
	keepsResidual() bool
}

// run is one solve in flight: the backend, the recurrence, the guard and
// the scaffold state all three share.
type run struct {
	Backend
	rec    recurrence
	kr     *krylov
	g      guard
	opts   Options
	method Method
	scheme Scheme
	res    *Result
	err    error

	// x is the iterate, b the right-hand side, r the residual.
	x, b, r *Vec
	normB   float64
	tol     float64
	maxIter int
	i       int
	relres  float64

	// The checkpointed set: maps built once, so a save allocates nothing.
	store      checkpoint.Store
	vecs, sums map[string][]float64
	scal       map[string]float64
}

// Solve runs method under scheme on A·x = b. It is the single entry point
// behind the per-scheme wrappers (BasicPCG, OnlineMVPBiCGSTAB, …): the
// method picks the recurrence, the scheme picks the backend and the guard.
// m is ignored by MethodCR, which is unpreconditioned. The orthogonality
// baseline exists for PCG only (BiCGSTAB has no orthogonality relations,
// §6), and CR is offered under the basic scheme only.
func Solve(method Method, scheme Scheme, a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options) (Result, error) {
	switch {
	case method < MethodPCG || method > MethodCR:
		return Result{}, fmt.Errorf("core: %v", method)
	case scheme < Unprotected || scheme > OfflineResidual:
		return Result{}, fmt.Errorf("core: %v", scheme)
	case method == MethodPBiCGSTAB && scheme == Orthogonality,
		method == MethodCR && scheme != Basic:
		return Result{}, fmt.Errorf("core: %s is not available for %s", scheme, method)
	}
	if method == MethodCR {
		m = nil
	}
	if scheme == OfflineResidual {
		return offlineResidual(method, a, m, b, opts)
	}
	return solve(method, scheme, a, m, b, opts, method.recurrence)
}

// forwardTier reports whether a solve runs the forward-recovery tier: a
// new-sum scheme with the option set, on a recurrence that has a Krylov
// restart to rebuild the direction from — PCG and CR; elsewhere the option
// is ignored.
func forwardTier(method Method, scheme Scheme, opts *Options) bool {
	return (scheme == Basic || scheme == TwoLevel) && opts.ForwardRecovery &&
		(method == MethodPCG || method == MethodCR)
}

// solve assembles recurrence × backend × guard for one method × scheme and
// drives it.
func solve(method Method, scheme Scheme, a *sparse.CSR, m precond.Preconditioner, b []float64, opts Options, newRec func(Backend) recurrence) (Result, error) {
	var res Result
	var weights []checksum.Weight
	switch {
	case scheme != Basic && scheme != TwoLevel: // the control arms and baselines carry no new-sum checksums
	case forwardTier(method, scheme, &opts) || scheme == TwoLevel && opts.EagerTriple:
		// Forward recovery needs the locating checksums δ2, δ3 on the
		// outer-level vectors themselves, so all three weights are carried.
		weights = checksum.Triple
	default:
		weights = checksum.Single
	}
	st, err := begin(a, m, b, weights, &opts, &res.Stats)
	if err != nil {
		return res, err
	}
	var be Backend = st.e
	switch {
	case scheme == OnlineMV:
		be = newOMV(st.e)
	case scheme == TwoLevel && !opts.EagerTriple:
		st.e.initLazyDiag()
	}
	// The engine's iterate is the answer on every exit, a failed one too.
	res.X = st.x.Data
	k := &run{Backend: be, method: method, scheme: scheme, opts: opts, res: &res,
		x: st.x, b: st.b, normB: st.normB, tol: st.tol, maxIter: st.maxIter}
	k.assemble(newRec(be), true)
	k.drive()
	// Teardown: the solve is over, so its working set goes back to vec's
	// pool; res.X is x's own array and stays the caller's.
	k.store.Release()
	st.e.taken.PutAll()
	return res, k.err
}

// Drive runs method (PCG, PBiCGSTAB or CR) under the basic or two-level
// scheme on a backend built outside this package: internal/par's rank
// engine, whose every rank calls it. b is the right-hand side as be holds
// it, and res the result whose Stats be counts into. opts must carry Tol
// and MaxIter; the solution is in res.X only when the solve converged or
// ran out of iterations. verifyP false snapshots p unverified (see krylov).
func Drive(method Method, scheme Scheme, be Backend, b *Vec, res *Result, opts Options, verifyP bool) error {
	opts.normalize()
	k := &run{Backend: be, method: method, scheme: scheme, opts: opts, res: res,
		x: be.NewVec("x"), b: b, normB: rhsNorm(be, b.Data), tol: opts.Tol, maxIter: opts.MaxIter}
	k.assemble(method.recurrence(be), verifyP)
	k.drive()
	// The snapshot goes back to vec's pool; the backend's vectors are its
	// owner's to return.
	k.store.Release()
	return k.err
}

// assemble attaches the recurrence and the guard the scheme names to a run
// whose backend is in place.
func (k *run) assemble(rec recurrence, verifyP bool) {
	k.r = k.NewVec("r")
	k.rec, k.kr = rec, rec.shape()
	k.kr.verifyP = verifyP
	switch k.scheme {
	case Basic, TwoLevel:
		g := &sumGuard{twoLevel: k.scheme == TwoLevel, forward: forwardTier(k.method, k.scheme, &k.opts),
			outer: []*Vec{k.x}}
		if !k.kr.xOnly {
			g.outer = append(append(g.outer, k.r), k.kr.watch...)
		}
		k.g = g
	case Orthogonality:
		k.g = &gapGuard{trueR: k.NewVec("trueR")}
	default:
		k.g = noGuard{}
	}
}

// drive is the scaffold every method × scheme shares: set-up, then the
// detect–checkpoint–step loop with its single rollback-or-storm sequence,
// one turn at a time, until the closing accounting in k.res and k.err.
func (k *run) drive() {
	for live := k.open(); live; live = k.turn() {
	}
}

// open builds the state the first turn starts from. False means the solve
// is already over: x0 met the tolerance, or the recurrence could not start.
func (k *run) open() bool {
	// x0 = 0, so r = b − A·x0 is b, checksums and all: no product to run, and
	// none of set-up's work can take a fault.
	copyVec(k.r, k.b)
	k.relres = k.Norm2(k.r.Data) / k.normB
	if k.relres <= k.tol {
		k.res.Converged = true
		return k.conclude(nil)
	}
	if err := k.rec.start(k); err != nil {
		return k.finish(err)
	}
	k.store = k.opts.newStore()
	k.vecs = map[string][]float64{"x": k.x.Data}
	k.sums = map[string][]float64{"x": k.x.S, "x.eta": k.x.Eta}
	if p := k.kr.p; p != nil {
		k.vecs["p"] = p.Data
		k.sums["p"], k.sums["p.eta"] = p.S, p.Eta
	}
	if k.g.keepsResidual() {
		k.vecs["r"] = k.r.Data
	}
	k.scal = map[string]float64{}
	return true
}

// turn is one trip round the steady-state loop; false means the solve is
// over, with the outcome in k.res and k.err. Once warm it allocates
// nothing per iteration (TestSolveSteadyStateZeroAllocs); detection and
// recovery ride the recovery budget, not the per-iteration one.
func (k *run) turn() bool {
	if k.i >= k.maxIter {
		_, err := notConverged(fmt.Sprintf("%s (%s)", k.method, k.scheme), *k.res, k.relres)
		return k.conclude(err)
	}
	// Cancellation boundary: a canceled or expired Options.Ctx is the
	// caller's only handle on a diverging or fault-storming solve.
	if err := k.opts.ctxErr(k.method.String()); err != nil {
		return k.finish(err)
	}
	st, err := k.iterate()
	switch st {
	case converged:
		k.res.Converged = true
		return k.conclude(nil)
	case failed:
		return k.finish(err)
	case faulted:
		if !k.rollback() {
			return k.finish(rollbackStormErr(k.method.String(), k.scheme))
		}
	}
	return true
}

// iterate is one pass of the loop: outer-level detection every d
// iterations (Algorithm 1 lines 5–6), a checkpoint every cd — a multiple
// of d, so on state that was just verified — then the recurrence's step.
func (k *run) iterate() (status, error) {
	if k.i > 0 && k.i%k.opts.DetectInterval == 0 && !k.g.boundary(k) {
		return faulted, nil
	}
	if k.i%k.opts.CheckpointInterval == 0 && !k.g.checkpoint(k) {
		return faulted, nil
	}
	return k.rec.step(k)
}

// advance closes iteration k.i once the iterate and residual have moved:
// the counter steps and the new residual is observed.
func (k *run) advance(resNorm float64) bool {
	k.i++
	k.res.Iterations = k.i
	return k.observe(resNorm)
}

// observe records the relative residual and reports whether it met the
// tolerance.
func (k *run) observe(resNorm float64) bool {
	k.relres = resNorm / k.normB
	return k.relres <= k.tol
}

// conclude closes a solve that ran its course — converged, or out of
// iterations — with the solution gathered whole.
func (k *run) conclude(err error) bool {
	k.res.X = k.Gather(k.x)
	return k.finish(err)
}

// finish closes the accounting on every exit path; it returns false, the
// "no more turns" answer of open and turn.
func (k *run) finish(err error) bool {
	k.res.Residual = k.relres
	k.res.Stats.InjectedErrors = k.Injected()
	k.err = err
	return false
}

// scalarFault records a suspect recurrence scalar as a detection.
func (k *run) scalarFault(format string, args ...any) status {
	k.res.Stats.Detections++
	k.opts.Trace.add(k.i, EvDetection, "suspect recurrence scalar "+format, args...)
	return faulted
}

func (k *run) breakdown(what string) error {
	return breakdownErr(k.method.String(), k.scheme, k.i, what)
}

// save snapshots {x, p}, the recurrence scalars and the carried checksums
// (plus r when the guard keeps it).
func (k *run) save() {
	k.opts.Trace.add(k.i, EvCheckpoint, k.kr.snapMsg)
	k.rec.scalars(k.scal)
	k.store.Save(k.i, k.vecs, k.scal, k.sums)
	st := &k.res.Stats
	st.Checkpoints++
	st.CheckpointBytes = k.store.BytesCopied
	st.CheckpointStoredBytes = k.store.BytesStored
	k.Strike(k.i, &k.store)
}

// rollback restores the latest snapshot and reconstructs what it does not
// hold — r = b − A·x and the recurrence's derived vectors — the recovery
// of Algorithm 1 line 9. False means the budget is spent or the snapshot
// is unusable: the solve does not terminate (ErrRollbackStorm).
func (k *run) rollback() bool {
	st := &k.res.Stats
	st.Rollbacks++
	if st.Rollbacks > k.opts.MaxRollbacks {
		return false
	}
	snapIter, err := k.store.Restore(k.vecs, k.scal, k.sums)
	if err != nil {
		return false
	}
	k.rec.setScalars(k.scal)
	lossy := k.store.Lossy()
	if lossy {
		// The restored iterate is quantized: the exact checksums that came
		// back with it disagree with the perturbed data by up to n·bound,
		// which verification would flag as a fault. Re-anchor them from
		// the restored data — the solve restarts from the perturbed (still
		// verified-clean) state, per Tao et al. A restored r was rounded
		// independently of x, so it is rebuilt as well.
		k.Reanchor(k.x)
		st.LossyRestores++
	}
	verb := "recomputed"
	switch {
	case k.kr.xOnly: // r is rebuilt by the next iteration anyway
	case lossy || !k.g.keepsResidual():
		k.Residual(k.r, k.b, k.x)
		st.RecoveryMVMs++
	default:
		verb = "kept"
	}
	if err := k.rec.restored(k, snapIter, lossy); err != nil {
		return false
	}
	st.WastedIterations += k.i - snapIter
	if tr := k.opts.Trace; tr != nil { // boxing the arguments allocates even for a nil trace
		tr.add(k.i, EvRollback, "restored iteration %d, %s %s", snapIter, verb, k.kr.rebuiltMsg)
	}
	k.i = snapIter
	return true
}

// noGuard is the absent policy: nothing is verified, nothing is
// checkpointed, every residual under the tolerance is accepted. It is the
// unprotected arm's guard, and online MV's — that baseline's protection
// lives entirely inside its operations.
type noGuard struct{}

func (noGuard) boundary(*run) bool               { return true }
func (noGuard) checkpoint(*run) bool             { return true }
func (noGuard) inner(*run, int, *Vec, *Vec) bool { return false }
func (noGuard) suspect(float64) bool             { return false }
func (noGuard) exit(*run, *Vec) status           { return converged }
func (noGuard) keepsResidual() bool              { return false }

// sumGuard is the paper's policy: the new-sum checksums the engine carries
// are verified lazily at the outer level (Algorithm 1), optionally probed
// after every MVM (Algorithm 2's inner level), and — under forward
// recovery — used to repair a detection in place before falling back to
// the checkpoint.
type sumGuard struct {
	twoLevel, forward bool
	// outer is x, r and the recurrence's watch list, in verification order.
	outer []*Vec
}

// boundary verifies checksum(v) = cᵀv for the outer-level vectors, x and
// r first.
func (g *sumGuard) boundary(k *run) bool {
	xOK, rOK, others := g.verifyOuter(k, g.outer)
	if xOK && rOK && others == 0 {
		return true
	}
	k.opts.Trace.add(k.i, EvDetection, k.kr.detectMsg)
	return g.repair(k, xOK, rOK, others, false)
}

// verifyOuter verifies vs in order and sorts the failures into x (first),
// r (second) and a count of the rest. The rollback-only path stops at the
// first failure; forward recovery needs every verdict, since each failed
// vector is repaired individually.
func (g *sumGuard) verifyOuter(k *run, vs []*Vec) (xOK, rOK bool, others int) {
	xOK, rOK = true, true
	for j, v := range vs {
		if k.Verify(v) {
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
		if !g.forward {
			break
		}
	}
	return xOK, rOK, others
}

// checkpoint verifies p (one O(n) sum per cd) and snapshots.
func (g *sumGuard) checkpoint(k *run) bool {
	if p := k.kr.p; k.i > 0 && p != nil && k.kr.verifyP && !k.Verify(p) && !g.repair(k, true, true, 1, false) {
		return false
	}
	k.save()
	return true
}

// inner is the inner-level protection of the two-level scheme (Algorithm 2
// lines 16–27): one-checksum probe, triple-checksum diagnosis, immediate
// correction of single errors, immediate rollback on multiple errors. Its
// events are stamped with i, the iteration whose MVM produced q (CR runs
// its MVM after advancing the driver's clock); a rollback it triggers
// keeps the driver's clock.
func (g *sumGuard) inner(k *run, i int, q, src *Vec) bool {
	if !g.twoLevel {
		return false
	}
	diag := k.InnerCheck(q, src)
	switch diag.Kind {
	case checksum.SingleError:
		k.opts.Trace.add(i, EvCorrection, "inner-level: %s[%d] -= %.6g", q.Name, diag.Pos, diag.Magnitude)
	case checksum.MultipleErrors:
		k.opts.Trace.add(i, EvDetection, "inner-level: multiple errors in MVM output")
		return true
	}
	return false
}

func (g *sumGuard) suspect(x float64) bool { return SuspectScalar(x) }

// exit verifies x and the residual before declaring victory, so a
// corrupted small residual cannot smuggle out a wrong solution.
func (g *sumGuard) exit(k *run, resid *Vec) status {
	vs := []*Vec{k.x, resid}
	if k.kr.xOnly {
		vs = vs[:1]
	}
	xOK, rOK, _ := g.verifyOuter(k, vs)
	if xOK && rOK {
		return converged
	}
	// The convergence exit skips the recurrence tail, so a forward repair
	// here always restarts before the next iteration reuses the direction.
	if !g.repair(k, xOK, rOK, 0, true) {
		return faulted
	}
	k.relres = k.Norm2(k.r.Data) / k.normB
	if k.relres <= k.tol && k.Verify(k.x) && k.Verify(k.r) {
		return converged
	}
	return advanced
}

func (g *sumGuard) keepsResidual() bool { return false }

// repair is the forward-recovery tier: attempt an in-place repair of every
// vector that failed verification, avoiding the rollback. xOK and rOK are
// the verdicts on x and r, others counts the failed vectors beyond them
// (the direction, stored products); restart forces the Krylov restart even
// without a data repair. It returns true when the solve may continue
// forward.
func (g *sumGuard) repair(k *run, xOK, rOK bool, others int, restart bool) bool {
	st := &k.res.Stats
	if !g.forward || st.ForwardRepairs >= k.opts.MaxRollbacks {
		return false
	}
	tr := k.opts.Trace
	// Vectors beyond x and r are never taken at their word: like r they
	// are rebuilt exactly, by the restart below, from the (just verified or
	// just repaired) residual — no trusted in-place repair, no rollback.
	repaired := others
	restart = restart || others > 0
	rebuildR := false
	if !xOK {
		out, diag := k.ForwardDiagnose(k.x)
		switch out {
		case checksum.Rejected:
			st.RejectedCorrections++
			tr.add(k.i, EvForwardRepair, "rejected fake correction on x; falling back")
			return false
		case checksum.Failed:
			tr.add(k.i, EvForwardRepair, "localization failed on x; falling back")
			return false
		case checksum.Corrected:
			// An in-place correction moves the iterate, so the carried
			// residual no longer satisfies r = b − A·x even when r's own
			// verification passed; rebuild it below.
			rebuildR = true
			tr.add(k.i, EvForwardRepair, "corrected x[%d] -= %.6g", diag.Pos, diag.Magnitude)
		case checksum.Reanchored:
			// Re-anchoring accepts x's data as the iterate going forward,
			// including any sub-screen perturbation the old checksums
			// disagreed with — and the recurrence residual tracks the old
			// checksum state, not the data. Rebuilding r = b − A·x below
			// re-couples them; without it a tiny absorbed x error becomes
			// a permanent offset between the recurrence residual and the
			// true one, i.e. silent data corruption at convergence.
			rebuildR = true
			tr.add(k.i, EvForwardRepair, "re-anchored checksum(x)")
		}
		repaired++
	}
	if !rOK {
		// No in-place diagnosis is trusted on r — not even a confirmed
		// §5.2 correction. A fault that pollutes the recurrence scalar
		// collapses α, shrinking an aliased multi-error pattern until the
		// post-correction inconsistency (suppressed by ~1/j³ at large
		// indices) hides below the confirmation threshold; accepting it
		// re-anchors checksum-endorsed corruption into r, and since r is
		// the recurrence's fixed-point anchor the solve then converges to
		// the wrong answer with consistent checksums. r = b − A·x holds
		// for any step lengths the recurrence took, so a clean (just
		// verified or just repaired) x rebuilds it exactly, erasing
		// whatever the corruption was for the price of one MVM.
		rebuildR = true
		repaired++
	}
	if rebuildR {
		if !k.Verify(k.x) {
			return false
		}
		k.Residual(k.r, k.b, k.x)
		st.RecoveryMVMs++
		restart = true
		tr.add(k.i, EvForwardRepair, "reconstructed r = b − A·x")
	}
	if restart {
		if err := k.rec.restart(k); err != nil {
			return false
		}
		tr.add(k.i, EvForwardRepair, k.kr.restartMsg)
	}
	st.ForwardRepairs += repaired
	st.RollbacksAvoided++
	if snapIter, ok := k.store.LatestIteration(); ok {
		st.IterationsSaved += k.i - snapIter
	}
	return true
}
