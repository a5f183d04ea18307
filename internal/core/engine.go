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

// tracked pairs a vector with its carried checksum slots (one per weight),
// the "separated" encoding of Fig. 2(d): the data is exactly what the
// unprotected solver holds, the checksums ride alongside.
type tracked struct {
	name string
	data []float64
	s    []float64
	// eta[k] is the running first-order round-off bound of s[k], carried
	// through every update so verification can tell accumulated floating-
	// point noise from genuine corruption at any n and d (see
	// checksum.ConsistentBound).
	eta []float64
}

// engine bundles the encoded matrices, weight set, tolerance, injector and
// statistics shared by the instrumented operations of a solve. It is the
// default backend of the operation vocabulary (ops): every operation runs
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
	// solver consumes it via takeFlag and rolls back.
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
// the offline pass amortized across solves — and pins the decoupling scalar.
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
	if m != nil {
		e.stages = m.Stages()
		e.encStg = make([]*checksum.Matrix, len(e.stages))
		for i, st := range e.stages {
			e.encStg[i] = checksum.EncodeMatrix(st.M, weights, d)
			if st.Op == precond.StageMul && e.scratch == nil {
				e.scratch = make([]float64, e.n)
			}
		}
	}
	e.lv = vec.NewLeaves(len(weights), e.n)
	return e
}

// newTracked allocates a tracked vector with zeroed data and checksums
// (consistent: cᵀ0 = 0).
func (e *engine) newTracked(name string) *tracked {
	return &tracked{
		name: name,
		data: make([]float64, e.n),
		s:    make([]float64, len(e.weights)),
		eta:  make([]float64, len(e.weights)),
	}
}

// wrap adopts an existing data slice as a tracked vector with freshly
// computed checksums and round-off bounds (used for the right-hand side b).
func (e *engine) wrap(name string, data []float64) *tracked {
	v := &tracked{
		name: name,
		data: data,
		s:    make([]float64, len(e.weights)),
		eta:  make([]float64, len(e.weights)),
	}
	e.recompute(v)
	return v
}

// recompute refreshes v's checksums from its data, used at initialization
// and after recovery reconstructs a vector.
func (e *engine) recompute(v *tracked) {
	for k := range e.weights {
		sum, absSum := e.sums(v, k)
		checksum.Anchor(v.s, v.eta, k, sum, absSum, e.n)
	}
}

// sums returns cᵀv and Σ|c_i·v_i| for weight k in one blocked pairwise
// pass on the pool. The all-ones weight's pair is Σv_i, Σ|v_i| — 1·v_i is
// exact, so bitwise the weighted pair — taken by the leaf that makes no
// call per element.
func (e *engine) sums(v *tracked, k int) (sum, absSum float64) {
	if k == 0 && e.onesFirst {
		return e.pool.SumAbs(v.data)
	}
	return e.pool.WeightedSumAbs(v.data, e.weights[k].At)
}

// dot, norm2 and mulVec route the solver loops' reductions and SpMVs
// through the pool; with a nil pool they are exactly vec.Dot, vec.Norm2
// and a.MulVec.
func (e *engine) dot(u, v []float64) float64 { return e.pool.Dot(u, v) }

func (e *engine) norm2(u []float64) float64 { return e.pool.Norm2(u) }

func (e *engine) mulVec(y, x []float64) { e.pool.MulVec(e.a, y, x) }

// rhsNorm is ‖b‖₂, or 1 for b = 0 so relative residuals stay finite.
func (e *engine) rhsNorm(b []float64) float64 {
	if nb := e.norm2(b); nb > 0 {
		return nb
	}
	return 1
}

// residual rebuilds r := b − A·x cleanly — no injector events, checksums
// re-anchored from the data. Initialization and recovery both use it: the
// paper injects errors only into the iteration loop.
func (e *engine) residual(r, b, x *tracked) {
	e.mulVec(r.data, x.data)
	vec.Sub(r.data, b.data, r.data)
	e.recompute(r)
}

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

// verify checks v's first checksum relationship — the outer-level
// verification of Algorithm 1 line 6 (one weighted sum, O(n)).
//
// On success the carried checksum is refreshed to the freshly measured sum
// and its round-off bound reset. The refresh costs nothing (the sum is in
// hand) and keeps the running η bound from compounding across verification
// windows: without it, the d-amplification cycle (×d at each MVM update,
// ÷d at each PCO) grows η by roughly (1+α) per iteration until it masks
// genuine errors.
func (e *engine) verify(v *tracked) bool {
	e.stats.Verifications++
	sum, absSum := e.sums(v, 0)
	ok := e.tol.ConsistentBound(sum-v.s[0], e.n, absSum, v.eta[0])
	if !ok {
		e.stats.Detections++
		return false
	}
	checksum.Anchor(v.s, v.eta, 0, sum, absSum, e.n)
	return true
}

// mvm computes dst := A·src with full fault instrumentation and the Eq. (2)
// checksum update. Memory faults strike src persistently before use; cache
// faults corrupt the value the multiplication consumes but not the stored
// vector; arithmetic faults strike the output.
//
// The update's row reductions checksum(A)·src ride the product's own sweep
// (kernel.MulVecDotAbs): they read src as the product reads it, struck by
// a memory fault or not, and an output fault touches dst alone, so carried
// checksums and verdicts are what a separate pass over src would give.
func (e *engine) mvm(iter int, dst, src *tracked) {
	e.inj.InjectMemory(iter, fault.SiteMVM, src.data)
	restore := e.inj.CacheWindow(iter, fault.SiteMVM, src.data)
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
		e.a.MulVecStride(dst.data, src.data, 0, 2)
		restore()
		e.a.MulVecStride(dst.data, src.data, 1, 2)
		e.inj.InjectOutput(iter, fault.SiteMVM, dst.data)
		e.mvmUpdate(iter, dst, src)
	case e.encA == nil: // no checksums carried: the plain product
		e.pool.MulVec(e.a, dst.data, src.data)
		e.inj.InjectOutput(iter, fault.SiteMVM, dst.data)
	default:
		e.pool.MulVecDotAbs(e.a, dst.data, src.data, e.encA.Rows, e.lv)
		e.inj.InjectOutput(iter, fault.SiteMVM, dst.data)
		e.lv.Fold()
		e.mvmCarry(iter, dst, src)
	}
}

// mvmUpdate carries the checksums through an MVM whose product is already
// in dst, reading src from memory after the operation (and after any
// fault) — the ordering Lemma 2's proof analyses. The cache-fault branch of
// mvm needs it.
func (e *engine) mvmUpdate(iter int, dst, src *tracked) {
	if e.encA == nil { // no checksums carried: nothing to update or to strike
		return
	}
	for k, row := range e.encA.Rows {
		e.lv.Sum[k], e.lv.Abs[k] = e.pool.DotAbs(row, src.data)
	}
	e.mvmCarry(iter, dst, src)
}

// mvmCarry carries dst's checksums through Eq. (2) from the row reductions
// in e.lv.Sum / e.lv.Abs and closes the instrumented MVM.
func (e *engine) mvmCarry(iter int, dst, src *tracked) {
	e.encA.UpdateMVMBoundFrom(dst.s, dst.eta, e.lv.Sum, e.lv.Abs, src.s, src.eta)
	e.stats.ChecksumUpdates++
	// A flip in the checksum accumulator itself (ModelChecksum): the data
	// stays clean, the carried relationship breaks, and the inconsistency
	// propagates through every downstream update until a verification
	// flags it — detection then costs one futile rollback to repair state
	// that was never wrong.
	e.inj.InjectOutput(iter, fault.SiteChecksum, dst.s)
	e.eagerCheck(dst)
}

// corruptCheckpoint fires pending checkpoint-buffer faults (SiteCheckpoint,
// Memory kind) into the snapshot just saved. The strike lands in the stored
// copy, not the live state, so it stays dormant until a rollback restores
// it — the ModelCheckpoint attack on the recovery machinery. Snapshot
// vectors are visited in sorted-name order so the struck buffer is
// deterministic for a seeded injector.
func (e *engine) corruptCheckpoint(iter int, store *checkpoint.Store) {
	if e.inj == nil {
		return
	}
	store.Strike(func(_ string, data []float64) {
		e.inj.InjectMemory(iter, fault.SiteCheckpoint, data)
	})
}

// pco computes dst := M⁻¹·src stage by stage, carrying checksums through
// each stage with Eq. (4) (solves) or Eq. (2) (multiplies).
func (e *engine) pco(iter int, dst, src *tracked) error {
	e.inj.InjectMemory(iter, fault.SitePCO, src.data)
	// A cache/register fault makes the whole solve consume a transiently
	// corrupted input; the stored vector (and its carried checksum) stay
	// clean, so the output's checksum relationship breaks by −cᵀe/d and
	// the inconsistency propagates to the verified vectors. The restore
	// is deferred directly (no wrapping closure — pco is on the hot path)
	// and conditionally, which defer permits.
	if restoreCache := e.inj.CacheWindow(iter, fault.SitePCO, src.data); restoreCache != nil {
		defer restoreCache()
	}
	if len(e.stages) == 0 {
		// The identity preconditioner — or any preconditioner on an engine
		// that carries no checksums: with nothing to thread through the
		// stages M⁻¹ is applied whole, as the unprotected solver applies it.
		if err := applyClean(e.m, dst.data, src.data); err != nil {
			return fmt.Errorf("core: PCO: %w", err)
		}
		copy(dst.s, src.s)
		copy(dst.eta, src.eta)
		e.inj.InjectOutput(iter, fault.SitePCO, dst.data)
		return nil
	}
	// Every stage writes straight into dst — a solve may run in place, and
	// the Eq. (2)/(4) folds carry the checksums in place — with the stage's
	// row reductions taken inside its own sweep. Only a multiply needs its
	// operand intact, so one fed from dst writes to the scratch instead.
	in, inS, inEta := src.data, src.s, src.eta
	for k, st := range e.stages {
		out := dst.data
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
			enc.UpdatePCOBoundFrom(dst.s, dst.eta, e.lv.Sum, e.lv.Abs, inS, inEta)
		case precond.StageMul:
			enc.UpdateMVMBoundFrom(dst.s, dst.eta, e.lv.Sum, e.lv.Abs, inS, inEta)
		}
		e.stats.ChecksumUpdates++
		in, inS, inEta = out, dst.s, dst.eta
	}
	if &in[0] != &dst.data[0] {
		copy(dst.data, in)
	}
	e.inj.InjectOutput(iter, fault.SitePCO, dst.data)
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

// axpy computes y := y + alpha·x with the Eq. (3) checksum update. A cache
// fault corrupts the value of x the update consumes while memory keeps the
// clean copy; the checksum update (from x.s) stays clean, so y becomes
// inconsistent and detectable.
func (e *engine) axpy(iter int, y *tracked, alpha float64, x *tracked) {
	e.inj.InjectMemory(iter, fault.SiteVLO, x.data)
	restore := e.inj.CacheWindow(iter, fault.SiteVLO, x.data)
	e.pool.Axpy(y.data, alpha, x.data)
	if restore != nil {
		restore()
	}
	checksum.UpdateVLOAxpyBound(y.s, y.eta, alpha, x.s, x.eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, y.data)
	e.eagerCheck(y)
}

// xpby computes dst := x + beta·y (dst may alias y) with checksum update.
func (e *engine) xpby(iter int, dst, x *tracked, beta float64, y *tracked) {
	e.pool.XpbyVLO(dst.data, x.data, beta, y.data, dst.s, dst.eta, x.s, x.eta, y.s, y.eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, dst.data)
	e.eagerCheck(dst)
}

// axpbyInto computes dst := alpha·x + beta·y with checksum update.
func (e *engine) axpbyInto(iter int, dst *tracked, alpha float64, x *tracked, beta float64, y *tracked) {
	e.pool.AxpbyVLO(dst.data, alpha, x.data, beta, y.data, dst.s, dst.eta, x.s, x.eta, y.s, y.eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, dst.data)
	e.eagerCheck(dst)
}

// eagerCheck verifies an operation's output immediately when eager
// detection is enabled, latching failures for the solver's rollback logic.
func (e *engine) eagerCheck(dst *tracked) {
	if !e.eager || e.flagged {
		return
	}
	if !e.verify(dst) {
		e.flagged = true
	}
}

// takeFlag reports and clears the latched eager-detection flag.
func (e *engine) takeFlag() bool {
	f := e.flagged
	e.flagged = false
	return f
}

// scaleInto computes dst := alpha·src with the Eq. (3) scaling update.
func (e *engine) scaleInto(iter int, dst *tracked, alpha float64, src *tracked) {
	e.pool.Scale(dst.data, alpha, src.data)
	checksum.UpdateVLOScaleBound(dst.s, dst.eta, alpha, src.s, src.eta)
	e.stats.ChecksumUpdates += e.perOp
	e.inj.InjectOutput(iter, fault.SiteVLO, dst.data)
	e.eagerCheck(dst)
}

// copyTracked copies src into dst, data and checksums.
func copyTracked(dst, src *tracked) {
	copy(dst.data, src.data)
	copy(dst.s, src.s)
	copy(dst.eta, src.eta)
}

// innerCheck runs the two-level scheme's inner-level protection on an MVM
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
func (e *engine) innerCheck(q, src *tracked) checksum.TripleDiagnosis {
	e.stats.Verifications++
	sum1, abs1 := e.sums(q, 0)
	d1 := sum1 - q.s[0]
	if e.tol.ConsistentBound(d1, e.n, abs1, q.eta[0]) {
		// Refresh the probed checksum (see verify) so η stays anchored.
		checksum.Anchor(q.s, q.eta, 0, sum1, abs1, e.n)
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
func (e *engine) diagnoseLazy(q, src *tracked, d1, abs1 float64) checksum.TripleDiagnosis {
	e.stats.Detections++
	// Input purity guard.
	e.stats.Verifications++
	srcSum, srcAbs := e.sums(src, 0)
	if !e.tol.ConsistentBound(srcSum-src.s[0], e.n, srcAbs, src.eta[0]) {
		return checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
	}
	deltas := []float64{d1, 0, 0}
	absSums := []float64{abs1, 0, 0}
	for k, w := range e.encDiag.Weights {
		exp := e.pool.Dot(e.encDiag.Rows[k], src.data)
		sum, abs := e.pool.WeightedSumAbs(q.data, w.At)
		deltas[k+1] = sum - exp
		absSums[k+1] = abs
		e.stats.Verifications += 2
	}
	diag := checksum.Diagnose(deltas, e.n, absSums, e.tol)
	if diag.Kind == checksum.SingleError {
		e.a.MulVecRows(q.data[diag.Pos:diag.Pos+1], src.data, diag.Pos, diag.Pos+1)
		e.stats.Corrections++
	}
	return diag
}

// diagnoseEager is the post-detection triple-checksum diagnosis of the
// eager two-level scheme. Cold by construction (runs only after a
// detection), like diagnoseLazy.
func (e *engine) diagnoseEager(q, src *tracked, d1, abs1 float64) checksum.TripleDiagnosis {
	e.stats.Detections++
	sum2, abs2 := e.sums(q, 1)
	sum3, abs3 := e.sums(q, 2)
	e.stats.Verifications += 2
	diag := checksum.Diagnose(
		[]float64{d1, sum2 - q.s[1], sum3 - q.s[2]},
		e.n,
		[]float64{abs1, abs2, abs3},
		e.tol,
	)
	if diag.Kind == checksum.SingleError {
		e.stats.Verifications++
		srcSum, srcAbs := e.sums(src, 0)
		if !e.tol.ConsistentBound(srcSum-src.s[0], e.n, srcAbs, src.eta[0]) {
			return checksum.TripleDiagnosis{Kind: checksum.MultipleErrors}
		}
		e.a.MulVecRows(q.data[diag.Pos:diag.Pos+1], src.data, diag.Pos, diag.Pos+1)
		e.stats.Corrections++
	}
	return diag
}

// injectedCount snapshots how many faults have fired so far.
func (e *engine) injectedCount() int {
	if e.inj == nil {
		return 0
	}
	return len(e.inj.Injected)
}
