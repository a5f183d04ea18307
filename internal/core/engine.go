package core

import (
	"fmt"
	"math"

	"newsum/internal/checkpoint"
	"newsum/internal/checksum"
	"newsum/internal/fault"
	"newsum/internal/kernel"
	"newsum/internal/precond"
	"newsum/internal/sparse"
	"newsum/internal/vec"
)

// Vec pairs a vector with its carried checksum slots (one per weight), the
// "separated" encoding of Fig. 2(d): the data is exactly what the
// unprotected solver holds, the checksums ride alongside. A backend owns
// what Data holds — the whole vector for the engine, one rank's block for
// internal/par, whose S are that block's partial sums.
type Vec struct {
	Name string
	Data []float64
	S    []float64
	// Eta[k] is the running first-order round-off bound of S[k], carried
	// through every update so verification can tell accumulated floating-
	// point noise from genuine corruption at any n and d (see
	// checksum.ConsistentBound). A backend that carries no bound leaves it
	// empty.
	Eta []float64
}

// engine bundles the encoded matrices, weight set, tolerance, injector and
// statistics shared by the instrumented operations of a solve. It is the
// default Backend of the driver: every operation runs
// its kernel on the pool, passes through the fault injector and updates the
// carried checksums of whatever weight set the engine was built over. With
// no weights nothing is encoded, carried or counted and the operations are
// the plain kernels plus the injector — the unprotected arm.
type engine struct {
	n       int
	a       *sparse.CSR
	m       precond.Preconditioner
	weights []checksum.Weight
	// perOp is what one vector-generating operation adds to
	// Stats.ChecksumUpdates: 1 when checksums are carried, 0 when not.
	perOp  int
	encA   *checksum.Matrix
	stages []precond.Stage
	encStg []*checksum.Matrix
	tol    checksum.Tol
	inj    *fault.Injector
	stats  *Stats

	// pool runs the hot loops on shared-memory workers; nil is the serial
	// pool (every kernel method falls through to the single-threaded
	// implementation, bitwise-identically).
	pool *kernel.Pool

	// eager enables per-operation output verification (the paper's eager
	// detection mode); flagged latches a failed eager check until the
	// solver consumes it via TakeFlag and rolls back.
	eager   bool
	flagged bool

	// encDiag, when non-nil, holds the plain c_kᵀA rows for the Linear and
	// Harmonic weights, used by the lazy two-level diagnosis: δ2 and δ3
	// are computed from these rows on demand instead of being carried
	// through every operation (see Options.EagerTriple).
	encDiag *checksum.Traditional

	// onesFirst records, once, that weights[0] is the all-ones weight, whose
	// verification pair is a plain (Σ, Σ|·|) with no call per element.
	onesFirst bool

	// lv is the leaf workspace of the row reductions the fused MVM and PCO
	// kernels take inside their own sweeps; its folded Sum/Abs feed the
	// Eq. (2)/(4) updates.
	lv *vec.Leaves

	// scratch receives the output of a multiply stage of the
	// preconditioner, the one stage kind that cannot run in place; nil when
	// every stage is a solve.
	scratch []float64

	// enc is the caller-supplied precomputed encoding, when one was passed
	// through Options.Encoding; nil means encA/encDiag were derived here.
	enc *checksum.Encoding

	// taken lists what the engine took from vec's pool — every vector but
	// x, the scratch, b's slots — for solve to put back once it is over.
	taken vec.Taken
}

// initLazyDiag prepares the on-demand diagnosis rows for the lazy two-level
// scheme, reusing the precomputed rows when a cached encoding is attached.
func (e *engine) initLazyDiag() {
	if e.enc != nil {
		e.encDiag = e.enc.Diag()
		return
	}
	e.encDiag = checksum.EncodeTraditional(e.a, []checksum.Weight{checksum.Linear, checksum.Harmonic})
}

// newEngine encodes A and every preconditioner stage once (setup cost, like
// the paper's offline encoding pass) and prepares scratch storage. A
// precomputed Options.Encoding short-circuits the cᵀA − d·cᵀ derivation —
// the offline pass amortized across solves — pins d and memoizes stage rows.
func newEngine(a *sparse.CSR, m precond.Preconditioner, weights []checksum.Weight, opts *Options, stats *Stats) *engine {
	e := &engine{
		n:       a.Rows,
		a:       a,
		m:       m,
		weights: weights,
		tol:     checksum.Tol{Theta: opts.Theta},
		inj:     opts.Injector,
		stats:   stats,
		pool:    opts.Pool,
		taken:   make(vec.Taken, 0, 16),
	}
	if len(weights) == 0 {
		return e
	}
	e.onesFirst = weights[0].IsOnes()
	e.perOp = 1
	e.eager = opts.EagerDetection
	var d float64
	if opts.Encoding != nil && opts.Encoding.N == a.Rows {
		e.enc = opts.Encoding
		e.encA = opts.Encoding.Matrix(weights)
		d = opts.Encoding.D
	} else {
		d = checksum.PracticalD(a)
		e.encA = checksum.EncodeMatrix(a, weights, d)
	}
	if m != nil && len(m.Stages()) > 0 {
		e.stages = m.Stages()
		for _, st := range e.stages {
			if st.Op == precond.StageMul && e.scratch == nil {
				e.scratch = e.taken.Take(e.n)
			}
		}
		if e.enc != nil {
			e.encStg = e.enc.StageRows(e.stages, weights)
		} else {
			e.encStg = checksum.EncodeStages(e.stages, weights, d)
		}
	}
	e.lv = vec.NewLeaves(len(weights), e.n)
	return e
}

// NewVec takes a vector with zeroed data and checksums (consistent:
// cᵀ0 = 0) from vec's pool.
func (e *engine) NewVec(name string) *Vec {
	return e.vecOf(name, e.taken.Take(e.n+2*len(e.weights)))
}

// vecOf lays a Vec over buf, n data words, then the weights' checksum
// slots and their round-off bounds.
func (e *engine) vecOf(name string, buf []float64) *Vec {
	n, w := e.n, len(e.weights)
	return &Vec{Name: name, Data: buf[:n:n], S: buf[n : n+w : n+w], Eta: buf[n+w:]}
}

// wrap adopts an existing data slice as a Vec with freshly
// computed checksums and round-off bounds (used for the right-hand side b).
func (e *engine) wrap(name string, data []float64) *Vec {
	w := len(e.weights)
	slots := e.taken.Take(2 * w)
	v := &Vec{Name: name, Data: data, S: slots[:w:w], Eta: slots[w:]}
	e.Reanchor(v)
	return v
}

// Reanchor refreshes v's checksums from its data, used at initialization
// and after recovery reconstructs a vector.
func (e *engine) Reanchor(v *Vec) {
	for k := range e.weights {
		sum, absSum := e.sums(v, k)
		checksum.Anchor(v.S, v.Eta, k, sum, absSum, e.n)
	}
}

// sums returns cᵀv and Σ|c_i·v_i| for weight k in one blocked pairwise
// pass on the pool. The all-ones weight's pair is Σv_i, Σ|v_i| — 1·v_i is
// exact, so bitwise the weighted pair — taken by the leaf that makes no
// call per element.
func (e *engine) sums(v *Vec, k int) (sum, absSum float64) {
	if k == 0 && e.onesFirst {
		return e.pool.SumAbs(v.Data)
	}
	return e.pool.WeightedSumAbs(v.Data, e.weights[k].At)
}

// Dot, Norm2 and mulVec route the solver loops' reductions and SpMVs
// through the pool; with a nil pool they are exactly vec.Dot, vec.Norm2
// and a.MulVec.
func (e *engine) Dot(u, v []float64) float64 { return e.pool.Dot(u, v) }

func (e *engine) Norm2(u []float64) float64 { return e.pool.Norm2(u) }

func (e *engine) mulVec(y, x []float64) { e.pool.MulVec(e.a, y, x) }

// rhsNorm is ‖b‖₂ as be takes it, or 1 for b = 0 so relative residuals
// stay finite.
func rhsNorm(be Backend, b []float64) float64 {
	if nb := be.Norm2(b); nb > 0 {
		return nb
	}
	return 1
}

// Residual rebuilds r := b − A·x cleanly — no injector events, checksums
// re-anchored from the data. Initialization and recovery both use it: the
// paper injects errors only into the iteration loop.
func (e *engine) Residual(r, b, x *Vec) {
	e.mulVec(r.Data, x.Data)
	vec.Sub(r.Data, b.Data, r.Data)
	e.Reanchor(r)
}

// MulClean computes dst := A·src cleanly, checksums re-anchored.
func (e *engine) MulClean(dst, src *Vec) {
	e.mulVec(dst.Data, src.Data)
	e.Reanchor(dst)
}

// PrecondClean computes dst := M⁻¹·src cleanly, checksums re-anchored.
func (e *engine) PrecondClean(dst, src *Vec) error {
	if err := applyClean(e.m, dst.Data, src.Data); err != nil {
		return err
	}
	e.Reanchor(dst)
	return nil
}

// Gather returns x: the engine holds it whole.
func (e *engine) Gather(x *Vec) []float64 { return x.Data }

// SuspectScalar reports whether a recurrence scalar is numerically
// meaningless — NaN, Inf, or beyond ≈√MaxFloat64 (any product of two such
// magnitudes overflows). Under ABFT a scalar that size right after a
// protected MVM is a propagated fault, not a breakdown: an exponent-bit
// upset scales an iterate element by 2^±1024, and the resulting huge
// denominator is divided away (α = ρ/pᵀAp collapses toward zero), pushing
// the corruption below the checksum detection threshold before the next
// verification boundary can see it. Solver loops treat a suspect scalar as
// a detection and roll back. Exact zero is deliberately excluded — that is
// the genuine breakdown condition and keeps its hard-error path.
func SuspectScalar(x float64) bool {
	return math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150
}

// Verify checks v's first checksum relationship — the outer-level
// verification of Algorithm 1 line 6 (one weighted sum, O(n)).
//
// On success the carried checksum is refreshed to the freshly measured sum
// and its round-off bound reset. The refresh costs nothing (the sum is in
// hand) and keeps the running η bound from compounding across verification
// windows: without it, the d-amplification cycle (×d at each MVM update,
// ÷d at each PCO) grows η by roughly (1+α) per iteration until it masks
// genuine errors.
func (e *engine) Verify(v *Vec) bool {
	e.stats.Verifications++
	sum, absSum := e.sums(v, 0)
	ok := e.tol.ConsistentBound(sum-v.S[0], e.n, absSum, v.Eta[0])
	if !ok {
		e.stats.Detections++
		return false
	}
	checksum.Anchor(v.S, v.Eta, 0, sum, absSum, e.n)
	return true
}

// MVM computes dst := A·src with full fault instrumentation and the Eq. (2)
// checksum update. Memory faults strike src persistently before use; cache
// faults corrupt the value the multiplication consumes but not the stored
// vector; arithmetic faults strike the output.
//
// The update's row reductions checksum(A)·src ride the product's own sweep
// (kernel.MulVecDotAbs): they read src as the product reads it, struck by
// a memory fault or not, and an output fault touches dst alone, so carried
// checksums and verdicts are what a separate pass over src would give.
func (e *engine) MVM(iter int, dst, src *Vec) {
	e.inj.InjectMemory(iter, fault.SiteMVM, src.Data)
	restore := e.inj.CacheWindow(iter, fault.SiteMVM, src.Data)
	switch {
	case restore != nil:
		// Model the paper's cache-eviction scenario (§2): the corrupted
		// cached value is consumed by a subset of rows (here the even
		// ones), then the line is evicted and the remaining rows reload
		// the correct value from memory. Only a row subset A_e sees the
		// error, which is what Lemma 2 case 3 analyses — and it defeats
		// structural cancellations such as the zero column sums of graph
		// Laplacians, which would hide an error consumed by every row.
		// The input is transient, so the update must read it afterwards,
		// from memory: mvmUpdate's separate pass.
		e.a.MulVecStride(dst.Data, src.Data, 0, 2)
		restore()
		e.a.MulVecStride(dst.Data, src.Data, 1, 2)
		e.inj.InjectOutput(iter, fault.SiteMVM, dst.Data)
		e.mvmUpdate(iter, dst, src)
	case e.encA == nil: // no checksums carried: the plain product
		e.pool.MulVec(e.a, dst.Data, src.Data)
		e.inj.InjectOutput(iter, fault.SiteMVM, dst.Data)
	default:
		e.pool.MulVecDotAbs(e.a, dst.Data, src.Data, e.encA.Rows, e.lv)
		e.inj.InjectOutput(iter, fault.SiteMVM, dst.Data)
		e.lv.Fold()
		e.mvmCarry(iter, dst, src)
	}
}

// mvmUpdate carries the checksums through an MVM whose product is already
// in dst, reading src from memory after the operation (and after any
// fault) — the ordering Lemma 2's proof analyses. The cache-fault branch of
// MVM needs it.
func (e *engine) mvmUpdate(iter int, dst, src *Vec) {
	if e.encA == nil { // no checksums carried: nothing to update or to strike
		return
	}
	for k, row := range e.encA.Rows {
		e.lv.Sum[k], e.lv.Abs[k] = e.pool.DotAbs(row, src.Data)
	}
	e.mvmCarry(iter, dst, src)
}

// mvmCarry carries dst's checksums through Eq. (2) from the row reductions
// in e.lv.Sum / e.lv.Abs and closes the instrumented MVM.
func (e *engine) mvmCarry(iter int, dst, src *Vec) {
	e.encA.UpdateMVMBoundFrom(dst.S, dst.Eta, e.lv.Sum, e.lv.Abs, src.S, src.Eta)
	e.stats.ChecksumUpdates++
	// A flip in the checksum accumulator itself (ModelChecksum): the data
	// stays clean, the carried relationship breaks, and the inconsistency
	// propagates through every downstream update until a verification
	// flags it — detection then costs one futile rollback to repair state
	// that was never wrong.
	e.inj.InjectOutput(iter, fault.SiteChecksum, dst.S)
	e.eagerCheck(dst)
}

// Strike fires pending checkpoint-buffer faults (SiteCheckpoint,
// Memory kind) into the snapshot just saved. The strike lands in the stored
// copy, not the live state, so it stays dormant until a rollback restores
// it — the ModelCheckpoint attack on the recovery machinery. Snapshot
// vectors are visited in sorted-name order so the struck buffer is
// deterministic for a seeded injector.
func (e *engine) Strike(iter int, store *checkpoint.Store) {
	if e.inj == nil {
		return
	}
	store.Strike(func(_ string, data []float64) {
		e.inj.InjectMemory(iter, fault.SiteCheckpoint, data)
	})
}

// PCO computes dst := M⁻¹·src stage by stage, carrying checksums through
// each stage with Eq. (4) (solves) or Eq. (2) (multiplies).
func (e *engine) PCO(iter int, dst, src *Vec) error {
	e.inj.InjectMemory(iter, fault.SitePCO, src.Data)
	// A cache/register fault makes the whole solve consume a transiently
	// corrupted input; the stored vector (and its carried checksum) stay
	// clean, so the output's checksum relationship breaks by −cᵀe/d and
	// the inconsistency propagates to the verified vectors. The restore
	// is deferred directly (no wrapping closure — pco is on the hot path)
	// and conditionally, which defer permits.
	if restoreCache := e.inj.CacheWindow(iter, fault.SitePCO, src.Data); restoreCache != nil {
		defer restoreCache()
	}
	if len(e.stages) == 0 {
		// The identity preconditioner — or any preconditioner on an engine
		// that carries no checksums: with nothing to thread through the
		// stages M⁻¹ is applied whole, as the unprotected solver applies it.
		if err := applyClean(e.m, dst.Data, src.Data); err != nil {
			return fmt.Errorf("core: PCO: %w", err)
		}
		copy(dst.S, src.S)
		copy(dst.Eta, src.Eta)
		e.inj.InjectOutput(iter, fault.SitePCO, dst.Data)
		return nil
	}
	// Every stage writes straight into dst — a solve may run in place, and
	// the Eq. (2)/(4) folds carry the checksums in place — with the stage's
	// row reductions taken inside its own sweep. Only a multiply needs its
	// operand intact, so one fed from dst writes to the scratch instead.
	in, inS, inEta := src.Data, src.S, src.Eta
	for k, st := range e.stages {
		out := dst.Data
		if st.Op == precond.StageMul && &in[0] == &out[0] {
			out = e.scratch
		}
		enc := e.encStg[k]
		if err := st.ApplyDotAbs(out, in, enc.Rows, e.lv); err != nil {
			return fmt.Errorf("core: PCO stage %d: %w", k, err)
		}
		e.lv.Fold()
		switch st.Op {
		case precond.StageSolve:
			enc.UpdatePCOBoundFrom(dst.S, dst.Eta, e.lv.Sum, e.lv.Abs, inS, inEta)
		case precond.StageMul:
			enc.UpdateMVMBoundFrom(dst.S, dst.Eta, e.lv.Sum, e.lv.Abs, inS, inEta)
		}
		e.stats.ChecksumUpdates++
		in, inS, inEta = out, dst.S, dst.Eta
	}
	if &in[0] != &dst.Data[0] {
		copy(dst.Data, in)
	}
	e.inj.InjectOutput(iter, fault.SitePCO, dst.Data)
	e.eagerCheck(dst)
	return nil
}

// applyClean applies a preconditioner without instrumentation, for recovery
// paths that must not consume injector events.
func applyClean(m precond.Preconditioner, z, r []float64) error {
	if m == nil {
		copy(z, r)
		return nil
	}
	return m.Apply(z, r)
}

// Axpy computes y := y + alpha·x with the Eq. (3) checksum update. A cache
// fault corrupts the value of x the update consumes while memory keeps the
// clean copy; the checksum update (from x.s) stays clean, so y becomes
// inconsistent and detectable.
func (e *engine) Axpy(iter int, y *Vec, alpha float64, x *Vec) {
	e.inj.InjectMemory(iter, fault.SiteVLO, x.Data)
	restore := e.inj.CacheWindow(iter, fault.SiteVLO, x.Data)
	e.pool.Axpy(y.Data, alpha, x.Data)
	if restore != nil {
		restore()
	}
	checksum.UpdateVLOAxpyBound(y.S, y.Eta, alpha, x.S, x.Eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, y.Data)
	e.eagerCheck(y)
}

// Xpby computes dst := x + beta·y (dst may alias y) with checksum update.
func (e *engine) Xpby(iter int, dst, x *Vec, beta float64, y *Vec) {
	e.pool.XpbyVLO(dst.Data, x.Data, beta, y.Data, dst.S, dst.Eta, x.S, x.Eta, y.S, y.Eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, dst.Data)
	e.eagerCheck(dst)
}

// Axpby computes dst := alpha·x + beta·y with checksum update.
func (e *engine) Axpby(iter int, dst *Vec, alpha float64, x *Vec, beta float64, y *Vec) {
	e.pool.AxpbyVLO(dst.Data, alpha, x.Data, beta, y.Data, dst.S, dst.Eta, x.S, x.Eta, y.S, y.Eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, dst.Data)
	e.eagerCheck(dst)
}

// eagerCheck verifies an operation's output immediately when eager
// detection is enabled, latching failures for the solver's rollback logic.
func (e *engine) eagerCheck(dst *Vec) {
	if !e.eager || e.flagged {
		return
	}
	if !e.Verify(dst) {
		e.flagged = true
	}
}

// TakeFlag reports and clears the latched eager-detection flag.
func (e *engine) TakeFlag() bool {
	f := e.flagged
	e.flagged = false
	return f
}

// scaleInto computes dst := alpha·src with the Eq. (3) scaling update.
func (e *engine) scaleInto(iter int, dst *Vec, alpha float64, src *Vec) {
	e.pool.Scale(dst.Data, alpha, src.Data)
	checksum.UpdateVLOScaleBound(dst.S, dst.Eta, alpha, src.S, src.Eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, dst.Data)
	e.eagerCheck(dst)
}

// copyVec copies src into dst, data and checksums.
func copyVec(dst, src *Vec) {
	copy(dst.Data, src.Data)
	copy(dst.S, src.S)
	copy(dst.Eta, src.Eta)
}

// InnerCheck runs the two-level scheme's inner-level protection on an MVM
// output (Algorithm 2 lines 16–27): the cheap δ1 probe, then — only on
// inconsistency — the full triple-checksum diagnosis. It returns the
// diagnosis; a single error is corrected in place by recomputing its row
// with the product's own row dot over the verified-clean input, so the
// corrected q is bitwise the fault-free product (data and the caller's
// stored checksums already agree after correction).
//
// Guard against fake corrections from upstream: an inconsistency that was
// carried IN by the input vector (e.g. a corrupted preconditioner solve a
// few operations earlier) produces deltas proportional to c_k(j) — exactly
// the signature of a single output error at position j — but "correcting"
// the output would corrupt a healthy element and launder the inconsistency
// into checksum-consistent garbage. A single-error diagnosis is therefore
// trusted only if the input vector verifies clean (one extra O(n) check,
// paid only when an error was already detected); otherwise the event is
// escalated to MultipleErrors and handled by rollback, which repairs the
// input too.
func (e *engine) InnerCheck(q, src *Vec) checksum.TripleDiagnosis {
	e.stats.Verifications++
	sum1, abs1 := e.sums(q, 0)
	d1 := sum1 - q.S[0]
	if e.tol.ConsistentBound(d1, e.n, abs1, q.Eta[0]) {
		// Refresh the probed checksum (see Verify) so η stays anchored.
		checksum.Anchor(q.S, q.Eta, 0, sum1, abs1, e.n)
		return checksum.TripleDiagnosis{Kind: checksum.NoError}
	}
	if e.encDiag != nil {
		return e.diagnoseLazy(q, src, d1, abs1)
	}
	return e.diagnoseEager(q, src, d1, abs1)
}

// diagnoseLazy runs the post-detection locating pass of the lazy two-level
// scheme: on-demand evaluation of the locating deltas δ2, δ3 straight from
// the encoded diagnosis rows: exp_k = row_k·p + d·c_kᵀp, which equals
// c_kᵀA·p exactly, so δ_k = c_kᵀq − c_kᵀA·p is the weighted sum of the
// output's data error. The input p must itself verify clean for the
// single-error signature to be trustworthy (same guard as the eager path).
// Cold by construction — it runs only after a detection, so its slice
// literals are off the steady-state budget.
func (e *engine) diagnoseLazy(q, src *Vec, d1, abs1 float64) checksum.TripleDiagnosis {
	e.stats.Detections++
	// Input purity guard.
	e.stats.Verifications++
	srcSum, srcAbs := e.sums(src, 0)
	if !e.tol.ConsistentBound(srcSum-src.S[0], e.n, srcAbs, src.Eta[0]) {
		return checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	deltas := []float64{d1, 0, 0}
	absSums := []float64{abs1, 0, 0}
	for k, w := range e.encDiag.Weights {
		exp := e.pool.Dot(e.encDiag.Rows[k], src.Data)
		sum, abs := e.pool.WeightedSumAbs(q.Data, w.At)
		deltas[k+1] = sum - exp
		absSums[k+1] = abs
		e.stats.Verifications += 2
	}
	diag := checksum.Diagnose(deltas, e.n, absSums, e.tol)
	if diag.Kind == checksum.SingleError {
		e.a.MulVecRows(q.Data[diag.Pos:diag.Pos+1], src.Data, diag.Pos, diag.Pos+1)
		e.stats.Corrections++
	}
	return diag
}

// diagnoseEager is the post-detection triple-checksum diagnosis of the
// eager two-level scheme. Cold by construction (runs only after a
// detection), like diagnoseLazy.
func (e *engine) diagnoseEager(q, src *Vec, d1, abs1 float64) checksum.TripleDiagnosis {
	e.stats.Detections++
	sum2, abs2 := e.sums(q, 1)
	sum3, abs3 := e.sums(q, 2)
	e.stats.Verifications += 2
	diag := checksum.Diagnose(
		[]float64{d1, sum2 - q.S[1], sum3 - q.S[2]},
		e.n,
		[]float64{abs1, abs2, abs3},
		e.tol,
	)
	if diag.Kind == checksum.SingleError {
		e.stats.Verifications++
		srcSum, srcAbs := e.sums(src, 0)
		if !e.tol.ConsistentBound(srcSum-src.S[0], e.n, srcAbs, src.Eta[0]) {
			return checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
		}
		e.a.MulVecRows(q.Data[diag.Pos:diag.Pos+1], src.Data, diag.Pos, diag.Pos+1)
		e.stats.Corrections++
	}
	return diag
}

// Injected snapshots how many faults have fired so far.
func (e *engine) Injected() int {
	if e.inj == nil {
		return 0
	}
	return len(e.inj.Injected)
}
